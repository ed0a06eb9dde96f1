//! Differential test of idle-cycle skipping: `SystemSim::run`, which
//! jumps over spans in which nothing can happen, against a manual
//! `step()` loop, which steps every cycle. On every topology of the
//! reduced Figs. 14/15 grid, with utilization sampling on, the whole
//! `RunResult` must match bit for bit: for runs to completion, and for a
//! cycle cap that lands inside an idle span.

use flumen::{MzimControlUnit, RuntimeConfig, SystemTopology};
use flumen_noc::{
    BusConfig, CrossbarConfig, MzimCrossbar, NetStats, Network, OpticalBus, RoutedConfig,
    RoutedNetwork, RoutedTopology,
};
use flumen_sim::{Component, Cycles};
use flumen_system::{CoreTask, ExternalServer, NullServer, RunResult, SystemSim};
use flumen_workloads::taskgen::{self, ExecMode};
use flumen_workloads::{small_benchmarks, Benchmark};

/// A sample window shorter than many idle spans, so a jump that skipped
/// a sample would show in the utilization trace.
const TRACE_INTERVAL: u64 = 97;

/// The per-cycle reference: step until finished or capped, then let `run`
/// finalize (it finds the system finished or out of budget at once).
fn stepped<N: Network, S: ExternalServer<N>>(mut sim: SystemSim<N, S>, max: u64) -> RunResult {
    while !sim.finished() && sim.cycle() < max {
        sim.step();
    }
    sim.run(max)
}

/// Steps a run to completion and returns the idle spans `(start, end)`
/// the engine reports on the way.
fn idle_spans<N: Network, S: ExternalServer<N>>(mut sim: SystemSim<N, S>) -> Vec<(u64, u64)> {
    let mut spans = Vec::new();
    while !sim.finished() {
        let now = sim.cycle();
        if let Some(end) = sim.idle_until(Cycles::new(now)) {
            if spans.last().is_none_or(|&(_, e)| e <= now) {
                spans.push((now, end.value()));
            }
        }
        sim.step();
    }
    spans
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

/// Compares skipping with stepping on one grid point: to completion, and
/// (when `cap_inside_span`) truncated in the middle of a long idle span.
fn check<N: Network, S: ExternalServer<N>>(
    what: &str,
    mk: &dyn Fn() -> SystemSim<N, S>,
    budget: u64,
    cap_inside_span: bool,
) {
    let want = stepped(mk(), budget);
    assert!(!want.truncated, "{what}: reduced grid must fit the budget");
    assert_same(what, &mk().run(budget), &want);
    assert!(!want.utilization_trace.is_empty(), "{what}: sampling is on");

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

fn mesh_dims(n: usize) -> (usize, usize) {
    let mut w = (n as f64).sqrt() as usize;
    while w >= 2 {
        if n.is_multiple_of(w) && n / w >= 2 {
            return (w, n / w);
        }
        w -= 1;
    }
    panic!("{n} chiplets cannot form a mesh");
}

fn build<N: Network, S: ExternalServer<N>>(
    cfg: &RuntimeConfig,
    tasks: &[Vec<CoreTask>],
    net: N,
    server: S,
) -> SystemSim<N, S> {
    let mut sim = SystemSim::new(cfg.system.clone(), net, server, tasks.to_vec());
    sim.set_trace_interval(TRACE_INTERVAL);
    sim
}

fn check_point(topology: SystemTopology, bench: &dyn Benchmark, cap_inside_span: bool) {
    let cfg = RuntimeConfig {
        max_cycles: 10_000_000,
        ..RuntimeConfig::paper()
    };
    let what = format!("{} on {topology:?}", bench.name());
    let chiplets = cfg.system.chiplets;
    let mode = match topology {
        SystemTopology::FlumenA => ExecMode::Offload,
        _ => ExecMode::Local,
    };
    let tasks: Vec<Vec<CoreTask>> = taskgen::generate(bench, &cfg.system, mode, &cfg.taskgen);
    let budget = cfg.max_cycles;
    let crossbar = || MzimCrossbar::new(chiplets, CrossbarConfig::default()).unwrap();
    match topology {
        SystemTopology::Ring => {
            let ring = || {
                let topo = RoutedTopology::Ring { nodes: chiplets };
                RoutedNetwork::new(topo, RoutedConfig::default()).unwrap()
            };
            check(
                &what,
                &|| build(&cfg, &tasks, ring(), NullServer::default()),
                budget,
                cap_inside_span,
            );
        }
        SystemTopology::Mesh => {
            let (width, height) = mesh_dims(chiplets);
            let mesh = || {
                let topo = RoutedTopology::Mesh { width, height };
                RoutedNetwork::new(topo, RoutedConfig::default()).unwrap()
            };
            check(
                &what,
                &|| build(&cfg, &tasks, mesh(), NullServer::default()),
                budget,
                cap_inside_span,
            );
        }
        SystemTopology::OptBus => check(
            &what,
            &|| {
                let bus = OpticalBus::new(chiplets, BusConfig::default()).unwrap();
                build(&cfg, &tasks, bus, NullServer::default())
            },
            budget,
            cap_inside_span,
        ),
        SystemTopology::FlumenI => check(
            &what,
            &|| build(&cfg, &tasks, crossbar(), NullServer::default()),
            budget,
            cap_inside_span,
        ),
        SystemTopology::FlumenA => check(
            &what,
            &|| {
                let cu = MzimControlUnit::new(cfg.control.clone());
                build(&cfg, &tasks, crossbar(), cu)
            },
            budget,
            cap_inside_span,
        ),
    }
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
