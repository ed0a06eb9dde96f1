//! The kernel's one cycle loop.

use crate::component::Component;
use flumen_units::Cycles;

/// How a kernel loop ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOutcome {
    /// The cycle the loop exited on.
    pub cycles: Cycles,
    /// `true` when the cycle cap fired before the component quiesced. A
    /// truncated run's statistics describe an unfinished execution and
    /// must be flagged as such, never silently reported.
    pub truncated: bool,
}

/// Steps `c` from cycle `start` until it reports [`Component::done`] or
/// cycle `max_cycles` is reached.
///
/// The `while !done && now < max { step }` loop, except that the caller
/// learns *why* it stopped.
/// A span [`Component::idle_until`] reports is crossed in one
/// [`Component::advance_idle`] jump, capped at `max_cycles` so a
/// truncated run stops on the cycle the stepping loop would; `done` is
/// checked again after every jump.
pub fn run_until<C: Component>(c: &mut C, start: Cycles, max_cycles: Cycles) -> RunOutcome {
    let mut now = start;
    while !c.done(now) {
        if now >= max_cycles {
            return RunOutcome {
                cycles: now,
                truncated: true,
            };
        }
        match c.idle_until(now) {
            Some(until) if until > now => {
                let to = until.min(max_cycles);
                c.advance_idle(now, to);
                now = to;
            }
            _ => {
                c.step(now);
                now += Cycles::new(1);
            }
        }
    }
    RunOutcome {
        cycles: now,
        truncated: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Countdown {
        remaining: u64,
        steps: u64,
    }

    impl Component for Countdown {
        fn step(&mut self, _now: Cycles) {
            if self.remaining > 0 {
                self.remaining -= 1;
            }
            self.steps += 1;
        }

        fn done(&self, _now: Cycles) -> bool {
            self.remaining == 0
        }
    }

    #[test]
    fn run_until_stops_at_quiescence() {
        let mut c = Countdown {
            remaining: 10,
            steps: 0,
        };
        let out = run_until(&mut c, Cycles::new(0), Cycles::new(1000));
        assert_eq!(out.cycles, Cycles::new(10));
        assert!(!out.truncated);
        assert_eq!(c.steps, 10);
    }

    #[test]
    fn run_until_reports_truncation() {
        let mut c = Countdown {
            remaining: 10,
            steps: 0,
        };
        let out = run_until(&mut c, Cycles::new(0), Cycles::new(4));
        assert!(out.truncated);
        assert_eq!(out.cycles, Cycles::new(4));
        assert_eq!(c.steps, 4);
    }

    /// Busy on the listed cycles, idle between them, done after the last.
    struct Bursty {
        busy: Vec<u64>,
        stepped: Vec<u64>,
        jumps: Vec<(u64, u64)>,
    }

    impl Bursty {
        fn new(busy: &[u64]) -> Self {
            Bursty {
                busy: busy.to_vec(),
                stepped: Vec::new(),
                jumps: Vec::new(),
            }
        }
    }

    impl Component for Bursty {
        fn step(&mut self, now: Cycles) {
            assert!(self.busy.contains(&now.value()), "stepped idle cycle {now}");
            self.stepped.push(now.value());
        }

        fn done(&self, now: Cycles) -> bool {
            self.busy.last().is_none_or(|&b| now.value() > b)
        }

        fn idle_until(&self, now: Cycles) -> Option<Cycles> {
            if self.busy.contains(&now.value()) {
                return None;
            }
            let next = self.busy.iter().find(|&&b| b > now.value());
            Some(Cycles::new(next.copied().unwrap_or(u64::MAX)))
        }

        fn advance_idle(&mut self, now: Cycles, to: Cycles) {
            assert!(to > now, "empty jump {now}..{to}");
            self.jumps.push((now.value(), to.value()));
        }
    }

    #[test]
    fn run_until_jumps_idle_spans_and_steps_busy_cycles() {
        let mut c = Bursty::new(&[0, 5, 6, 20]);
        let out = run_until(&mut c, Cycles::new(0), Cycles::new(1000));
        assert_eq!(out.cycles, Cycles::new(21));
        assert!(!out.truncated);
        assert_eq!(c.stepped, vec![0, 5, 6, 20]);
        assert_eq!(c.jumps, vec![(1, 5), (7, 20)]);
    }

    #[test]
    fn run_until_resumes_from_its_start_cycle() {
        let mut c = Bursty::new(&[0, 5, 6, 20]);
        let out = run_until(&mut c, Cycles::new(6), Cycles::new(1000));
        assert_eq!(out.cycles, Cycles::new(21));
        assert!(!out.truncated);
        assert_eq!(c.stepped, vec![6, 20]);
        assert_eq!(c.jumps, vec![(7, 20)]);
    }

    #[test]
    fn jump_is_capped_and_truncates_at_exactly_max_cycles() {
        let mut c = Bursty::new(&[0, 5, 6, 20]);
        let out = run_until(&mut c, Cycles::new(0), Cycles::new(12));
        assert!(out.truncated);
        assert_eq!(out.cycles, Cycles::new(12));
        assert_eq!(c.stepped, vec![0, 5, 6]);
        assert_eq!(c.jumps, vec![(1, 5), (7, 12)]);
    }

    #[test]
    fn jump_to_a_far_event_stops_at_the_cap() {
        let mut c = Bursty::new(&[3]);
        c.busy.push(u64::MAX - 1);
        let out = run_until(&mut c, Cycles::new(0), Cycles::new(50));
        assert!(out.truncated);
        assert_eq!(out.cycles, Cycles::new(50));
        assert_eq!(c.stepped, vec![3]);
        assert_eq!(c.jumps, vec![(0, 3), (4, 50)]);
        for &(_, to) in &c.jumps {
            assert!(to <= 50, "jump past max_cycles");
        }
    }
}
