//! Property: snapshotting a full-system run at an arbitrary cycle and
//! resuming into a freshly constructed simulator is invisible — the
//! resumed run finishes with bit-identical statistics to the
//! uninterrupted one, on every topology of the reduced Figs. 14/15 grid
//! and at random checkpoint positions.

use flumen::{RuntimeConfig, SystemTopology, TopologySim};
use flumen_sim::Snapshotable;
use flumen_system::RunResult;
use flumen_trace::TraceHandle;
use flumen_workloads::{Benchmark, ImageBlur, Rotation3d};
use proptest::prelude::*;

fn reduced_cfg() -> RuntimeConfig {
    RuntimeConfig {
        max_cycles: 10_000_000,
        ..RuntimeConfig::paper()
    }
}

/// Runs the simulation three ways: uninterrupted, and snapshot-at-`frac`%
/// resumed into a fresh instance; asserts the results are bit-identical.
fn split_matches(
    mk: &dyn Fn() -> TopologySim,
    budget: u64,
    frac: u64,
) -> Result<(), TestCaseError> {
    let reference: RunResult = mk().run(budget);
    prop_assert!(!reference.truncated, "reduced grid must fit the budget");

    let split = (reference.cycles * frac / 100).max(1);
    let mut partial = mk();
    while partial.cycle() < split && !partial.finished() {
        partial.step();
    }
    let snap = partial.snapshot();

    let mut resumed = mk();
    resumed
        .restore(&snap)
        .map_err(|e| TestCaseError(format!("restore failed: {}", e.0)))?;
    let r = resumed.run(budget);

    prop_assert_eq!(r.cycles, reference.cycles);
    prop_assert!(!r.truncated);
    prop_assert_eq!(&r.counts, &reference.counts);
    prop_assert_eq!(r.net_stats.injected, reference.net_stats.injected);
    prop_assert_eq!(r.net_stats.delivered, reference.net_stats.delivered);
    prop_assert_eq!(r.net_stats.latency_sum, reference.net_stats.latency_sum);
    prop_assert_eq!(r.net_stats.latency_max, reference.net_stats.latency_max);
    prop_assert_eq!(r.net_stats.latency_hist, reference.net_stats.latency_hist);
    prop_assert_eq!(r.net_stats.bits_injected, reference.net_stats.bits_injected);
    prop_assert_eq!(r.net_stats.bit_hops, reference.net_stats.bit_hops);
    prop_assert_eq!(&r.net_stats.link_busy, &reference.net_stats.link_busy);
    prop_assert_eq!(
        r.net_stats.reconfigurations,
        reference.net_stats.reconfigurations
    );
    // Utilization traces compare by f64 bit pattern, not approximate
    // equality: resume must be exact, not merely close.
    let bits = |t: &[f64]| t.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    prop_assert_eq!(
        bits(&r.utilization_trace),
        bits(&reference.utilization_trace)
    );
    Ok(())
}

fn check_split(
    topology: SystemTopology,
    bench: &dyn Benchmark,
    frac: u64,
) -> Result<(), TestCaseError> {
    let cfg = reduced_cfg();
    let mk = || TopologySim::new(bench, topology, &cfg, TraceHandle::disabled());
    split_matches(&mk, cfg.max_cycles, frac)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Checkpoint/resume is invisible at any cycle, on any topology, for
    /// both structurally distinct reduced workloads (dense MVM stream vs.
    /// SVD-partitioned rotation).
    #[test]
    fn snapshot_resume_is_bit_identical(
        bench_sel in 0usize..2,
        topo_sel in 0usize..5,
        frac in 1u64..100,
    ) {
        let topology = SystemTopology::all()[topo_sel];
        let bench: Box<dyn Benchmark> = match bench_sel {
            0 => Box::new(ImageBlur::small()),
            _ => Box::new(Rotation3d::small()),
        };
        check_split(topology, bench.as_ref(), frac)?;
    }
}
