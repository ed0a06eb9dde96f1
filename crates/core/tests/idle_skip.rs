//! Differential test of idle-cycle skipping: `SystemSim::run`, which
//! jumps over spans in which nothing can happen, against a manual
//! `step()` loop, which steps every cycle. On every topology of the
//! reduced Figs. 14/15 grid, with utilization sampling on, the whole
//! `RunResult` must match bit for bit: for runs to completion, and for a
//! cycle cap that lands inside an idle span. A run stopped on checkpoint
//! boundaries with `run_to` must also snapshot the same bytes there as
//! the stepping loop.

use flumen::{RuntimeConfig, SystemTopology, TopologySim};
use flumen_noc::NetStats;
use flumen_sim::Snapshotable;
use flumen_system::RunResult;
use flumen_trace::TraceHandle;
use flumen_workloads::{small_benchmarks, Benchmark};

/// A sample window shorter than many idle spans, so a jump that skipped
/// a sample would show in the utilization trace.
const TRACE_INTERVAL: u64 = 97;

/// Checkpoint intervals: one on the sample window, one longer than most
/// idle spans.
const CHECKPOINT_INTERVALS: [u64; 2] = [97, 1000];

/// The per-cycle reference: step until finished or capped, then let `run`
/// finalize (it finds the system finished or out of budget at once).
fn stepped(mut sim: TopologySim, max: u64) -> RunResult {
    while !sim.finished() && sim.cycle() < max {
        sim.step();
    }
    sim.run(max)
}

/// Steps a run to completion and returns the idle spans `(start, end)`
/// the engine reports on the way.
fn idle_spans(mut sim: TopologySim) -> Vec<(u64, u64)> {
    let mut spans = Vec::new();
    while !sim.finished() {
        let now = sim.cycle();
        if let Some(end) = sim.quiet_until() {
            if spans.last().is_none_or(|&(_, e)| e <= now) {
                spans.push((now, end));
            }
        }
        sim.step();
    }
    spans
}

/// The canonical snapshot at every multiple of `every` before the run
/// finishes, reached with `run_to` (`skip`) or by stepping every cycle.
fn boundary_snapshots(mut sim: TopologySim, every: u64, skip: bool) -> Vec<(u64, String)> {
    let mut snaps = Vec::new();
    while !sim.finished() {
        let stop = (sim.cycle() / every + 1) * every;
        if skip {
            sim.run_to(stop);
        } else {
            while !sim.finished() && sim.cycle() < stop {
                sim.step();
            }
        }
        if sim.cycle() == stop && !sim.finished() {
            snaps.push((stop, sim.snapshot().to_canonical()));
        }
    }
    snaps
}

fn assert_same(what: &str, got: &RunResult, want: &RunResult) {
    assert_eq!(got.cycles, want.cycles, "{what}: cycles");
    assert_eq!(got.truncated, want.truncated, "{what}: truncated");
    assert_eq!(got.counts, want.counts, "{what}: counts");
    // Destructured so a new `NetStats` field cannot go uncompared.
    let NetStats {
        injected,
        delivered,
        latency_sum,
        latency_max,
        latency_hist,
        bits_injected,
        bit_hops,
        link_busy,
        reconfigurations,
        cycles,
    } = &got.net_stats;
    let w = &want.net_stats;
    assert_eq!(*injected, w.injected, "{what}: injected");
    assert_eq!(*delivered, w.delivered, "{what}: delivered");
    assert_eq!(*latency_sum, w.latency_sum, "{what}: latency_sum");
    assert_eq!(*latency_max, w.latency_max, "{what}: latency_max");
    assert_eq!(*latency_hist, w.latency_hist, "{what}: latency_hist");
    assert_eq!(*bits_injected, w.bits_injected, "{what}: bits_injected");
    assert_eq!(*bit_hops, w.bit_hops, "{what}: bit_hops");
    assert_eq!(*link_busy, w.link_busy, "{what}: link_busy");
    assert_eq!(*reconfigurations, w.reconfigurations, "{what}: reconfigs");
    assert_eq!(*cycles, w.cycles, "{what}: net cycles");
    let bits = |t: &[f64]| t.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&got.utilization_trace),
        bits(&want.utilization_trace),
        "{what}: utilization trace"
    );
}

/// Compares skipping with stepping on one grid point: to completion, at
/// every checkpoint boundary, and (when `cap_inside_span`) truncated in
/// the middle of a long idle span.
fn check(what: &str, mk: &dyn Fn() -> TopologySim, budget: u64, cap_inside_span: bool) {
    let want = stepped(mk(), budget);
    assert!(!want.truncated, "{what}: reduced grid must fit the budget");
    assert_same(what, &mk().run(budget), &want);
    assert!(!want.utilization_trace.is_empty(), "{what}: sampling is on");

    for every in CHECKPOINT_INTERVALS {
        // The run finishes on cycle `want.cycles`, so every multiple of
        // `every` below it is a boundary.
        let boundaries = ((want.cycles - 1) / every) as usize;
        let stepped = boundary_snapshots(mk(), every, false);
        let skipped = boundary_snapshots(mk(), every, true);
        assert_eq!(stepped.len(), boundaries, "{what}: stepped every {every}");
        assert_eq!(skipped.len(), boundaries, "{what}: skipped every {every}");
        for ((cycle, got), (_, snap)) in skipped.iter().zip(&stepped) {
            assert!(got == snap, "{what}: snapshot at cycle {cycle} differs");
        }
    }

    if cap_inside_span {
        let spans = idle_spans(mk());
        let &(start, end) = spans
            .iter()
            .find(|&&(s, e)| s >= want.cycles / 2 && e - s >= 4)
            .unwrap_or_else(|| panic!("{what}: no idle span to truncate in"));
        let cap = start + (end - start) / 2;
        let want = stepped(mk(), cap);
        assert!(want.truncated, "{what}: capped run is truncated");
        assert_eq!(want.cycles, cap);
        assert_same(&format!("{what} capped at {cap}"), &mk().run(cap), &want);
    }
}

fn check_point(topology: SystemTopology, bench: &dyn Benchmark, cap_inside_span: bool) {
    let cfg = RuntimeConfig {
        max_cycles: 10_000_000,
        trace_interval: TRACE_INTERVAL,
        ..RuntimeConfig::paper()
    };
    let what = format!("{} on {topology:?}", bench.name());
    let mk = || TopologySim::new(bench, topology, &cfg, TraceHandle::disabled());
    check(&what, &mk, cfg.max_cycles, cap_inside_span);
}

macro_rules! topology_test {
    ($name:ident, $topology:expr) => {
        #[test]
        fn $name() {
            for (i, bench) in small_benchmarks().iter().enumerate() {
                check_point($topology, bench.as_ref(), i == 0);
            }
        }
    };
}

topology_test!(ring_skips_bit_identically, SystemTopology::Ring);
topology_test!(mesh_skips_bit_identically, SystemTopology::Mesh);
topology_test!(optbus_skips_bit_identically, SystemTopology::OptBus);
topology_test!(flumen_i_skips_bit_identically, SystemTopology::FlumenI);
topology_test!(flumen_a_skips_bit_identically, SystemTopology::FlumenA);
