//! The kernel's single cycle-domain clock.

use crate::json::{FromJson, Json, JsonError, ToJson};
use flumen_units::Cycles;

/// A monotonic cycle counter — the one clock domain every layer shares.
///
/// All simulated subsystems (cores, caches, the interconnect, the MZIM
/// control unit) advance in lock-step on this counter; there are no
/// per-component clocks to drift apart. The current time is exposed as
/// [`Cycles`] so downstream timing arithmetic stays unit-checked.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Clock {
    now: u64,
}

impl Clock {
    /// A clock at cycle zero.
    pub fn new() -> Self {
        Clock { now: 0 }
    }

    /// A clock resumed at an arbitrary cycle (snapshot restore).
    pub fn at(cycle: Cycles) -> Self {
        Clock { now: cycle.value() }
    }

    /// The current simulation time.
    #[inline]
    pub fn now(&self) -> Cycles {
        Cycles::new(self.now)
    }

    /// Advances time by one cycle.
    #[inline]
    pub fn tick(&mut self) {
        self.now += 1;
    }

    /// Jumps forward to `to`, the end of an idle span.
    #[inline]
    pub fn advance_to(&mut self, to: Cycles) {
        debug_assert!(to.value() >= self.now, "the clock never runs backwards");
        self.now = to.value();
    }
}

impl ToJson for Clock {
    fn to_json(&self) -> Json {
        self.now.to_json()
    }
}

impl FromJson for Clock {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        Ok(Clock { now: j.as_u64()? })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ticks_and_round_trips() {
        let mut c = Clock::new();
        for _ in 0..5 {
            c.tick();
        }
        assert_eq!(c.now(), Cycles::new(5));
        let back = Clock::from_json(&c.to_json()).unwrap();
        assert_eq!(back, c);
        assert_eq!(Clock::at(Cycles::new(5)), c);
        c.advance_to(Cycles::new(12));
        assert_eq!(c.now(), Cycles::new(12));
    }
}
