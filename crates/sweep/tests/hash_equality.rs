//! Equal specs hash equal: the invariant that lets a caller skip
//! `JobSpec::content_hash` for a spec `==` to one it already hashed.
//!
//! Every type inside `JobSpec` derives `PartialEq`, and the canonical
//! JSON prints `0.0` and `-0.0` alike, so `a == b` must imply identical
//! canonical bytes. NaN is the one value that breaks `==` without
//! breaking the hash: a spec holding one is unequal even to its own
//! clone, yet every clone hashes alike.

use flumen::{RuntimeConfig, SystemTopology};
use flumen_noc::harness::RunConfig;
use flumen_noc::traffic::TrafficPattern;
use flumen_sweep::{BenchKind, BenchSize, BenchSpec, JobSpec, NetSpec};
use proptest::prelude::*;

/// Float values drawn for loads and a scheduler knob: both zeros, NaN,
/// and an ordinary value. Indices 0 and 1 are the two zeros.
const FLOATS: [f64; 4] = [0.0, -0.0, f64::NAN, 0.25];

/// One spec's choices, each an index into a small domain so that two
/// independent draws are often equal.
#[derive(Debug, Clone, Copy)]
struct Draw {
    variant: usize,
    kind: usize,
    topology: usize,
    net: usize,
    pattern: usize,
    float: usize,
    seed: u64,
}

type Choices = ((usize, usize, usize, usize), (usize, usize, u64));

fn choices() -> impl Strategy<Value = Choices> {
    (
        (0..3usize, 0..2usize, 0..2usize, 0..2usize),
        (0..2usize, 0..4usize, 0..2u64),
    )
}

impl From<Choices> for Draw {
    fn from(((variant, kind, topology, net), (pattern, float, seed)): Choices) -> Self {
        Draw {
            variant,
            kind,
            topology,
            net,
            pattern,
            float,
            seed,
        }
    }
}

/// The same draw with the sign of a zero float flipped.
fn flip_zero(d: Draw) -> Draw {
    let float = match d.float {
        0 => 1,
        1 => 0,
        other => other,
    };
    Draw { float, ..d }
}

fn build(d: Draw) -> JobSpec {
    let x = FLOATS[d.float];
    let net = [
        NetSpec::Ring { nodes: 8 },
        NetSpec::Torus {
            width: 2,
            height: 2,
        },
    ][d.net];
    let pattern = [TrafficPattern::UniformRandom, TrafficPattern::Shuffle][d.pattern];
    let cfg = RunConfig {
        seed: d.seed,
        ..RunConfig::default()
    };
    match d.variant {
        0 => {
            let mut cfg = RuntimeConfig::paper();
            cfg.control.scheduler.eta = x;
            JobSpec::FullRun {
                bench: BenchSpec {
                    kind: [BenchKind::Rotation3d, BenchKind::Jpeg][d.kind],
                    size: BenchSize::Small,
                },
                topology: [SystemTopology::FlumenA, SystemTopology::Mesh][d.topology],
                cfg,
            }
        }
        1 => JobSpec::NocPoint {
            net,
            pattern,
            load: x,
            cfg,
        },
        _ => JobSpec::NocStats {
            net,
            pattern,
            load: x,
            cfg,
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `a == b` implies `a.content_hash() == b.content_hash()`, for `b`
    /// drawn independently or as `a` with a zero's sign flipped.
    #[test]
    fn equal_specs_hash_equal(ca in choices(), cb in choices(), flip in any::<bool>()) {
        let da = Draw::from(ca);
        let a = build(da);
        let b = build(if flip { flip_zero(da) } else { Draw::from(cb) });
        if a == b {
            prop_assert_eq!(a.content_hash(), b.content_hash());
        }
    }

    /// A NaN spec is not `==` to its clone, but the two hash alike.
    #[test]
    fn nan_specs_are_unequal_but_hash_alike(c in choices()) {
        let a = build(Draw {
            float: 2,
            ..Draw::from(c)
        });
        let b = a.clone();
        prop_assert!(a != b);
        prop_assert_eq!(a.content_hash(), b.content_hash());
    }
}

#[test]
fn signed_zeros_are_equal_and_hash_alike() {
    for variant in 0..3 {
        let d = Draw {
            variant,
            kind: 0,
            topology: 0,
            net: 0,
            pattern: 0,
            float: 0,
            seed: 0,
        };
        let (a, b) = (build(d), build(flip_zero(d)));
        assert_eq!(a, b);
        assert_eq!(a.canonical_json(), b.canonical_json());
        assert_eq!(a.content_hash(), b.content_hash());
    }
}
