//! System-level batched-offload conservation.
//!
//! One offload request carrying `B` vectors must be *work-equivalent* to
//! the sequence of `B` single-vector requests with the same matrix: the
//! photonic MVM count and the modulated/converted sample counts conserve
//! exactly, packet traffic through the system network is untouched by the
//! batching shape, and the only thing batching changes is *cycles* — the
//! one-time mesh programming is paid once instead of `B` times. The
//! energy half of the identity (`batched_total == 1×programming +
//! B×propagation`, bit-exact) is pinned in `flumen-power` and checked here
//! for every shape exercised.

use flumen::{ControlUnitParams, MzimControlUnit};
use flumen_noc::{CrossbarConfig, MzimCrossbar, Network};
use flumen_power::compute::{flumen_matmul_pj, flumen_programming_pj, flumen_propagation_pj};
use flumen_system::{
    ActivityCounts, CoreTask, ExternalPayload, ExternalServer, SystemConfig, SystemSim,
};
use flumen_trace::{RecordingTracer, TraceEvent};
use proptest::prelude::*;

fn net16() -> MzimCrossbar {
    MzimCrossbar::new(16, CrossbarConfig::default()).unwrap()
}

/// Drives a fresh paper-parameter control unit over `reqs` (tag, payload)
/// requests until quiescent; returns the drained activity counts, total
/// service cycles, and every trace event the unit emitted.
fn run_requests(reqs: &[ExternalPayload]) -> (ActivityCounts, u64, Vec<TraceEvent>) {
    let rec = RecordingTracer::new();
    let mut cu = MzimControlUnit::new(ControlUnitParams::paper());
    cu.set_tracer(rec.handle());
    let mut net = net16();
    for (i, payload) in reqs.iter().enumerate() {
        cu.on_request(0, 0, 4, i as u64 + 1, *payload);
    }
    let mut done = 0usize;
    let mut last = 0u64;
    for _ in 0..2_000_000u64 {
        let now = net.cycle();
        for o in cu.step(now, &mut net) {
            assert!(o.accepted, "request {} rejected", o.tag);
            done += 1;
            last = now;
        }
        net.step();
        if done == reqs.len() {
            break;
        }
    }
    assert_eq!(done, reqs.len(), "requests did not complete");
    let mut counts = ActivityCounts::default();
    cu.drain_counts(&mut counts);
    (counts, last, rec.events())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// One `B`-vector request vs `B` single-vector requests, same matrix:
    /// photonic work conserves exactly; the batched shape finishes
    /// strictly sooner.
    #[test]
    fn batched_request_conserves_work_and_amortizes_programming(
        batch in 2u64..65, n in 2u64..9
    ) {
        let batched = run_requests(&[[1, batch, n, batch * n * n]]);
        let singles: Vec<ExternalPayload> =
            (0..batch).map(|_| [1, 1, n, n * n]).collect();
        let single = run_requests(&singles);

        // Work conservation: the same B MVMs over the same n-wide matrix.
        prop_assert_eq!(batched.0.mzim_mvms, batch);
        prop_assert_eq!(single.0.mzim_mvms, batch);
        prop_assert_eq!(batched.0.mzim_input_samples, batch * n);
        prop_assert_eq!(single.0.mzim_input_samples, batch * n);
        prop_assert_eq!(batched.0.mzim_output_samples, single.0.mzim_output_samples);
        // Amortization: the batched request completes strictly sooner.
        prop_assert!(
            batched.1 < single.1,
            "batched {} !< singles {}",
            batched.1,
            single.1
        );
    }

    /// Batching shape never perturbs packet traffic: neither run injects
    /// or forwards a single network packet (offloads ride the arbitration
    /// path, not the packet NoP), so packet-class trace events are
    /// identical — zero — in both.
    #[test]
    fn batching_leaves_packet_traffic_untouched(batch in 2u64..17, n in 2u64..9) {
        let batched = run_requests(&[[1, batch, n, batch * n * n]]);
        let singles: Vec<ExternalPayload> = (0..batch).map(|_| [1, 1, n, n * n]).collect();
        let single = run_requests(&singles);
        let pkts = |evs: &[TraceEvent]| evs.iter().filter(|e| e.name == "pkt").count();
        prop_assert_eq!(pkts(&batched.2), pkts(&single.2));
    }

    /// The power model satisfies the conservation identity for every
    /// `(n, B)` the other properties exercised — bitwise, not approximate.
    #[test]
    fn energy_identity_holds(batch in 1usize..129, n in 2usize..65) {
        let total = flumen_matmul_pj(n, batch).value();
        let split = (flumen_programming_pj(n, batch)
            + batch as f64 * flumen_propagation_pj(n, batch))
        .value();
        prop_assert_eq!(total.to_bits(), split.to_bits());
    }
}

/// End-to-end through the system engine: a Flumen-A style run whose core
/// offloads one batched request produces the same photonic work counters
/// as a run offloading the equivalent singles, and both record the same
/// number of offload-path packets (zero extra NoP traffic).
#[test]
fn engine_offload_path_conserves_counts() {
    let run = |payloads: Vec<ExternalPayload>| {
        let mut tasks: Vec<Vec<CoreTask>> = vec![Vec::new(); SystemConfig::paper().cores];
        for p in payloads {
            tasks[1].push(CoreTask::External {
                payload: p,
                fallback: vec![],
            });
        }
        let sim = SystemSim::new(
            SystemConfig::paper(),
            net16(),
            MzimControlUnit::new(ControlUnitParams::paper()),
            tasks,
        );
        sim.run(10_000_000)
    };
    let n = 8u64;
    let b = 24u64;
    let batched = run(vec![[1, b, n, b * n * n]]);
    let single = run((0..b).map(|_| [1, 1, n, n * n]).collect());
    assert!(!batched.truncated && !single.truncated);
    assert_eq!(batched.counts.mzim_mvms, b);
    assert_eq!(single.counts.mzim_mvms, b);
    assert_eq!(
        batched.counts.mzim_input_samples,
        single.counts.mzim_input_samples
    );
    assert_eq!(
        batched.counts.mzim_output_samples,
        single.counts.mzim_output_samples
    );
    assert_eq!(batched.counts.nop_packets, single.counts.nop_packets);
    assert_eq!(batched.counts.offload_requests, 1);
    assert_eq!(single.counts.offload_requests, b);
    assert!(
        batched.cycles < single.cycles,
        "batched {} !< singles {}",
        batched.cycles,
        single.cycles
    );
}
