//! The open-loop load-generator scenario family.
//!
//! A scenario describes *offered* load: a set of concurrent client
//! streams, each emitting requests according to a stochastic arrival
//! process, independent of how fast the server drains them (open loop —
//! a saturated server keeps receiving arrivals, which is what makes
//! saturation curves meaningful). Three processes cover the regimes the
//! serving literature sweeps:
//!
//! * **Poisson** — memoryless arrivals at a constant mean rate.
//! * **Bursty** — a two-state Markov-modulated Poisson process (MMPP-2):
//!   exponentially-dwelling base/burst phases, each Poisson at its own
//!   rate.
//! * **Diurnal** — a raised-cosine rate ramp between a trough and a peak
//!   over a fixed period, sampled by thinning.
//!
//! Every draw comes from a seeded [`SimRng`], so a scenario is a pure
//! function of its spec: the same seed replays the exact same request
//! trace, bit for bit, on every run.

use crate::request::Request;
use flumen_sim::json::{Json, ToJson};
use flumen_sim::{Cycles, SimRng};
use flumen_sweep::JobSpec;
use rand::Rng;

/// Cycles per megacycle: the denominator of every scenario rate.
pub const MCYCLE: f64 = 1_000_000.0;

/// A stochastic arrival process. All rates are mean requests per
/// megacycle of simulated time; dwell and period parameters are cycles.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalProcess {
    /// Memoryless arrivals at a constant rate.
    Poisson {
        /// Mean arrivals per megacycle.
        rate: f64,
    },
    /// MMPP-2: alternating base/burst phases with exponentially
    /// distributed dwell times, each phase Poisson at its own rate.
    Bursty {
        /// Mean arrivals per megacycle in the base phase.
        base: f64,
        /// Mean arrivals per megacycle in the burst phase.
        burst: f64,
        /// Mean base-phase dwell, cycles.
        dwell_base: f64,
        /// Mean burst-phase dwell, cycles.
        dwell_burst: f64,
    },
    /// Raised-cosine ramp: the instantaneous rate swings from `trough`
    /// (at phase 0) up to `peak` (mid-period) and back, repeating.
    Diurnal {
        /// Minimum arrivals per megacycle.
        trough: f64,
        /// Maximum arrivals per megacycle.
        peak: f64,
        /// Ramp period, cycles.
        period: f64,
    },
}

impl ArrivalProcess {
    /// Stable family name ("poisson" / "bursty" / "diurnal").
    pub fn name(&self) -> &'static str {
        match self {
            ArrivalProcess::Poisson { .. } => "poisson",
            ArrivalProcess::Bursty { .. } => "bursty",
            ArrivalProcess::Diurnal { .. } => "diurnal",
        }
    }

    /// Long-run mean rate, requests per megacycle.
    pub fn mean_rate(&self) -> f64 {
        match *self {
            ArrivalProcess::Poisson { rate } => rate,
            ArrivalProcess::Bursty {
                base,
                burst,
                dwell_base,
                dwell_burst,
            } => (base * dwell_base + burst * dwell_burst) / (dwell_base + dwell_burst),
            ArrivalProcess::Diurnal { trough, peak, .. } => 0.5 * (trough + peak),
        }
    }

    /// The same process with every rate multiplied by `factor` (load
    /// sweeps scale a family template up and down the x-axis).
    pub fn scaled(&self, factor: f64) -> Self {
        match *self {
            ArrivalProcess::Poisson { rate } => ArrivalProcess::Poisson {
                rate: rate * factor,
            },
            ArrivalProcess::Bursty {
                base,
                burst,
                dwell_base,
                dwell_burst,
            } => ArrivalProcess::Bursty {
                base: base * factor,
                burst: burst * factor,
                dwell_base,
                dwell_burst,
            },
            ArrivalProcess::Diurnal {
                trough,
                peak,
                period,
            } => ArrivalProcess::Diurnal {
                trough: trough * factor,
                peak: peak * factor,
                period,
            },
        }
    }

    /// Arrival times for one client stream, strictly within `horizon`.
    fn sample(&self, rng: &mut SimRng, horizon: f64) -> Vec<f64> {
        let mut out = Vec::new();
        match *self {
            ArrivalProcess::Poisson { rate } => {
                if rate <= 0.0 {
                    return out;
                }
                let mean_gap = MCYCLE / rate;
                let mut t = exp_sample(rng, mean_gap);
                while t < horizon {
                    out.push(t);
                    t += exp_sample(rng, mean_gap);
                }
            }
            ArrivalProcess::Bursty {
                base,
                burst,
                dwell_base,
                dwell_burst,
            } => {
                // The exponential's memorylessness makes it valid to
                // resample the arrival gap after each phase switch.
                let mut t = 0.0;
                let mut in_burst = false;
                let mut switch = exp_sample(rng, dwell_base);
                while t < horizon {
                    let rate = if in_burst { burst } else { base };
                    let next = if rate > 0.0 {
                        t + exp_sample(rng, MCYCLE / rate)
                    } else {
                        f64::INFINITY
                    };
                    if next <= switch {
                        if next >= horizon {
                            break;
                        }
                        t = next;
                        out.push(t);
                    } else {
                        t = switch;
                        in_burst = !in_burst;
                        let dwell = if in_burst { dwell_burst } else { dwell_base };
                        switch = t + exp_sample(rng, dwell);
                    }
                }
            }
            ArrivalProcess::Diurnal {
                trough,
                peak,
                period,
            } => {
                // Thinning (Lewis–Shedler): sample at the peak rate,
                // accept with probability rate(t)/peak.
                if peak <= 0.0 {
                    return out;
                }
                let mean_gap = MCYCLE / peak;
                let mut t = exp_sample(rng, mean_gap);
                while t < horizon {
                    let phase = (t / period) * std::f64::consts::TAU;
                    let rate = trough + (peak - trough) * 0.5 * (1.0 - phase.cos());
                    let u: f64 = rng.gen_range(0.0..1.0);
                    if u < rate / peak {
                        out.push(t);
                    }
                    t += exp_sample(rng, mean_gap);
                }
            }
        }
        out
    }
}

/// One exponential draw with the given mean (inverse-CDF method).
fn exp_sample(rng: &mut SimRng, mean: f64) -> f64 {
    let u: f64 = rng.gen_range(0.0..1.0);
    -(1.0 - u).ln() * mean
}

impl ToJson for ArrivalProcess {
    fn to_json(&self) -> Json {
        match *self {
            ArrivalProcess::Poisson { rate } => Json::obj([
                ("process", Json::Str("poisson".into())),
                ("rate", rate.to_json()),
            ]),
            ArrivalProcess::Bursty {
                base,
                burst,
                dwell_base,
                dwell_burst,
            } => Json::obj([
                ("process", Json::Str("bursty".into())),
                ("base", base.to_json()),
                ("burst", burst.to_json()),
                ("dwell_base", dwell_base.to_json()),
                ("dwell_burst", dwell_burst.to_json()),
            ]),
            ArrivalProcess::Diurnal {
                trough,
                peak,
                period,
            } => Json::obj([
                ("process", Json::Str("diurnal".into())),
                ("trough", trough.to_json()),
                ("peak", peak.to_json()),
                ("period", period.to_json()),
            ]),
        }
    }
}

/// A weighted payload mix: each generated request draws its job from
/// this distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct JobMix {
    choices: Vec<(f64, JobSpec)>,
    total: f64,
}

impl JobMix {
    /// Builds a mix from `(weight, job)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if `choices` is empty or any weight is non-positive.
    pub fn new(choices: Vec<(f64, JobSpec)>) -> Self {
        assert!(!choices.is_empty(), "job mix needs at least one payload");
        assert!(
            choices.iter().all(|(w, _)| *w > 0.0),
            "job-mix weights must be positive"
        );
        let total = choices.iter().map(|(w, _)| w).sum();
        JobMix { choices, total }
    }

    /// The `(weight, job)` pairs, in declaration order.
    pub fn choices(&self) -> &[(f64, JobSpec)] {
        &self.choices
    }

    /// Weighted mean over the mix of `f(job)`.
    pub fn weighted_mean(&self, mut f: impl FnMut(&JobSpec) -> f64) -> f64 {
        self.choices.iter().map(|(w, job)| w * f(job)).sum::<f64>() / self.total
    }

    /// Draws one payload: its index into [`JobMix::choices`].
    fn pick(&self, rng: &mut SimRng) -> usize {
        let mut x: f64 = rng.gen_range(0.0..self.total);
        for (k, (w, _)) in self.choices.iter().enumerate() {
            if x < *w {
                return k;
            }
            x -= w;
        }
        // Float accumulation can leave x == 0 after the loop; the mix is
        // non-empty so the last choice is always valid.
        self.choices.len() - 1
    }
}

impl JobMix {
    /// The standard served mix: one MVM offload (the small 3-D rotation
    /// workload on Flumen-A) for every four traffic-measurement requests
    /// against the 16-endpoint MZIM crossbar. Small-size payloads keep
    /// the table executable in milliseconds; service *demand* still
    /// comes from each payload's simulated runtime.
    pub fn standard() -> Self {
        use flumen::{RuntimeConfig, SystemTopology};
        use flumen_noc::harness::RunConfig;
        use flumen_noc::traffic::TrafficPattern;
        use flumen_sweep::{BenchKind, BenchSize, BenchSpec, NetSpec};
        let traffic = |pattern, load, seed| JobSpec::NocPoint {
            net: NetSpec::Flumen { nodes: 16 },
            pattern,
            load,
            cfg: RunConfig {
                warmup: 500,
                measure: 2_000,
                seed,
                ..RunConfig::default()
            },
        };
        JobMix::new(vec![
            (
                1.0,
                JobSpec::FullRun {
                    bench: BenchSpec {
                        kind: BenchKind::Rotation3d,
                        size: BenchSize::Small,
                    },
                    topology: SystemTopology::FlumenA,
                    cfg: RuntimeConfig::paper(),
                },
            ),
            (2.0, traffic(TrafficPattern::UniformRandom, 0.2, 0xA1)),
            (2.0, traffic(TrafficPattern::Shuffle, 0.3, 0xA2)),
        ])
    }
}

impl ToJson for JobMix {
    fn to_json(&self) -> Json {
        Json::Arr(
            self.choices
                .iter()
                .map(|(w, job)| Json::obj([("weight", w.to_json()), ("job", job.to_json())]))
                .collect(),
        )
    }
}

/// A complete, replayable serving scenario: the arrival process, the
/// payload mix, the client count, the horizon, and the seed. Everything
/// that determines the request trace is in here and serializes into the
/// report, so a result hash names an exact experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Display name (also keys the report).
    pub name: String,
    /// Aggregate arrival process (split evenly across clients).
    pub process: ArrivalProcess,
    /// Generation horizon: no arrivals at or beyond this cycle.
    pub horizon: Cycles,
    /// Concurrent client streams.
    pub clients: u32,
    /// Master seed; client `c` derives its stream from `(seed, c)`.
    pub seed: u64,
    /// Payload distribution.
    pub mix: JobMix,
}

impl ScenarioSpec {
    /// Generates the full request trace: each client stream samples the
    /// process at `1/clients` of the aggregate rate from its own derived
    /// seed, and the streams are merged in `(arrival, client)` order with
    /// dense ids assigned in merged order. Pure function of the spec.
    ///
    /// The merge sorts small `(arrival, client, choice)` tuples; each
    /// request's spec is cloned from the mix once, at the end.
    pub fn generate(&self) -> Vec<Request> {
        let clients = self.clients.max(1);
        let share = self.process.scaled(1.0 / f64::from(clients));
        let horizon = self.horizon.count_f64();
        let mut merged: Vec<(u64, u32, usize)> = Vec::new();
        for client in 0..clients {
            // SplitMix64-style stream separation keeps sibling seeds
            // uncorrelated even for adjacent master seeds.
            let stream = self
                .seed
                .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(u64::from(client) + 1));
            let mut rng = SimRng::seed_from_u64(stream);
            for t in share.sample(&mut rng, horizon) {
                let at = t.floor().max(0.0);
                merged.push((at as u64, client, self.mix.pick(&mut rng)));
            }
        }
        merged.sort_by_key(|a| (a.0, a.1));
        merged
            .into_iter()
            .enumerate()
            .map(|(i, (at, client, k))| Request {
                id: i as u64,
                client,
                arrival: Cycles::new(at),
                job: self.mix.choices[k].1.clone(),
            })
            .collect()
    }
}

impl ToJson for ScenarioSpec {
    fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::Str(self.name.clone())),
            ("process", self.process.to_json()),
            ("horizon", self.horizon.value().to_json()),
            ("clients", Json::Num(f64::from(self.clients))),
            ("seed", self.seed.to_json()),
            ("mix", self.mix.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flumen_noc::harness::RunConfig;
    use flumen_noc::traffic::TrafficPattern;
    use flumen_sweep::NetSpec;

    fn tiny_mix() -> JobMix {
        JobMix::new(vec![(
            1.0,
            JobSpec::NocPoint {
                net: NetSpec::Ring { nodes: 8 },
                pattern: TrafficPattern::UniformRandom,
                load: 0.1,
                cfg: RunConfig::default(),
            },
        )])
    }

    fn spec(process: ArrivalProcess) -> ScenarioSpec {
        ScenarioSpec {
            name: "t".into(),
            process,
            horizon: Cycles::new(2_000_000),
            clients: 3,
            seed: 0xF1,
            mix: tiny_mix(),
        }
    }

    #[test]
    fn poisson_rate_is_roughly_honored() {
        let s = spec(ArrivalProcess::Poisson { rate: 50.0 });
        let reqs = s.generate();
        // 50/Mcycle over 2 Mcycles ≈ 100 arrivals; allow wide slack.
        assert!(
            (40..=180).contains(&reqs.len()),
            "got {} arrivals",
            reqs.len()
        );
        // Sorted by arrival, ids dense.
        for (i, r) in reqs.iter().enumerate() {
            assert_eq!(r.id, i as u64);
            if i > 0 {
                assert!(r.arrival >= reqs[i - 1].arrival);
            }
            assert!(r.arrival < s.horizon);
        }
    }

    #[test]
    fn all_families_generate_within_horizon() {
        for process in [
            ArrivalProcess::Poisson { rate: 30.0 },
            ArrivalProcess::Bursty {
                base: 15.0,
                burst: 60.0,
                dwell_base: 200_000.0,
                dwell_burst: 100_000.0,
            },
            ArrivalProcess::Diurnal {
                trough: 10.0,
                peak: 60.0,
                period: 500_000.0,
            },
        ] {
            let s = spec(process);
            let reqs = s.generate();
            assert!(!reqs.is_empty(), "{} generated nothing", s.process.name());
            assert!(reqs.iter().all(|r| r.arrival < s.horizon));
        }
    }

    #[test]
    fn mean_rate_matches_construction() {
        let b = ArrivalProcess::Bursty {
            base: 10.0,
            burst: 30.0,
            dwell_base: 100.0,
            dwell_burst: 100.0,
        };
        assert!((b.mean_rate() - 20.0).abs() < 1e-12);
        let d = ArrivalProcess::Diurnal {
            trough: 8.0,
            peak: 24.0,
            period: 1000.0,
        };
        assert!((d.mean_rate() - 16.0).abs() < 1e-12);
        assert!((d.scaled(2.0).mean_rate() - 32.0).abs() < 1e-12);
    }

    #[test]
    fn generation_is_deterministic() {
        let s = spec(ArrivalProcess::Bursty {
            base: 20.0,
            burst: 80.0,
            dwell_base: 150_000.0,
            dwell_burst: 50_000.0,
        });
        let a = s.generate();
        let b = s.generate();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.arrival, y.arrival);
            assert_eq!(x.client, y.client);
            assert_eq!(x.job, y.job);
        }
    }
}
