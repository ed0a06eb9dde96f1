//! Property test: the scheduler's partition trace obeys the grant/release
//! protocol for any request stream.
//!
//! Every wire of the MZIM crossbar must alternate strictly between
//! `partition` AsyncBegin (grant) and AsyncEnd (release) events — a
//! double-grant or a release of an unheld wire is a scheduler bug. The
//! invariant is checked over the recorded trace stream, so the test also
//! exercises the tracing plumbing end to end.

use flumen::scheduler::SchedulerParams;
use flumen::{ControlUnitParams, MzimControlUnit};
use flumen_noc::{CrossbarConfig, MzimCrossbar, Network};
use flumen_system::ExternalServer;
use flumen_trace::{invariants, EventKind, RecordingTracer};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Feeds `nreq` randomized offload requests into a control unit attached
/// to a 16-port crossbar and drives the pair until every request has
/// resolved (or the cycle budget runs out, which the caller treats as
/// acceptable: held-at-end partitions are legal).
fn run_random_requests(seed: u64, nreq: usize, params: ControlUnitParams) -> Arc<RecordingTracer> {
    let mut rng = StdRng::seed_from_u64(seed);
    let rec = RecordingTracer::new();
    let mut cu = MzimControlUnit::new(params);
    cu.set_tracer(rec.handle());
    let mut net = MzimCrossbar::new(16, CrossbarConfig::default()).unwrap();

    let mut pending: Vec<(u64, usize, u64, [u64; 4])> = (0..nreq)
        .map(|i| {
            let arrival = rng.gen_range(0..400u64);
            let chiplet = rng.gen_range(0..16usize);
            let configs = rng.gen_range(1..12u64);
            let vectors = rng.gen_range(1..64u64);
            let n = [2u64, 4, 8][rng.gen_range(0..3usize)];
            (arrival, chiplet, i as u64 + 1, [configs, vectors, n, 0])
        })
        .collect();
    pending.sort_by_key(|r| r.0);

    let mut resolved = 0usize;
    for _ in 0..60_000u64 {
        let now = net.cycle();
        while let Some(&(arrival, chiplet, tag, payload)) = pending.first() {
            if arrival > now {
                break;
            }
            cu.on_request(now, chiplet * 4, chiplet, tag, payload);
            pending.remove(0);
        }
        resolved += cu.step(now, &mut net).len();
        net.step();
        if resolved == nreq && pending.is_empty() {
            break;
        }
    }
    rec
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Default (paper) parameters: every grant/release alternates per
    /// wire, and with an idle network every span eventually closes.
    #[test]
    fn partition_grants_alternate_per_wire(seed in any::<u32>(), nreq in 1usize..8) {
        let rec = run_random_requests(seed as u64, nreq, ControlUnitParams::paper());
        prop_assert_eq!(rec.dropped(), 0);
        let evs = rec.events();
        let grants = invariants::partition_alternation(&evs);
        prop_assert!(grants.is_ok(), "alternation violated: {:?}", grants);
        let begins = evs.iter().filter(|e| e.kind == EventKind::AsyncBegin).count();
        let ends = evs.iter().filter(|e| e.kind == EventKind::AsyncEnd).count();
        prop_assert_eq!(begins, ends, "a partition was never torn down");
        // Every request left a decision in the trace.
        let requests = evs.iter().filter(|e| e.name == "request").count();
        prop_assert_eq!(requests, nreq);
    }

    /// Hostile parameters (η = -1 forces timeouts): requests that bounce
    /// to local compute must not leak half-open partition spans.
    #[test]
    fn timeouts_never_leak_partitions(seed in any::<u32>(), nreq in 1usize..6) {
        let params = ControlUnitParams {
            scheduler: SchedulerParams {
                eta: -1.0,
                max_wait: 300,
                ..SchedulerParams::paper()
            },
            ..ControlUnitParams::paper()
        };
        let rec = run_random_requests(seed as u64, nreq, params);
        let evs = rec.events();
        prop_assert!(invariants::partition_alternation(&evs).is_ok());
        // Nothing was ever admitted, so no partition events at all.
        prop_assert!(!evs.iter().any(|e| e.name == "partition"));
        prop_assert!(evs.iter().any(|e| e.name == "timeout"));
    }
}

/// The invariant checker itself must fail loudly when the protocol is
/// broken: replaying a recorded grant twice is flagged as a double-grant.
#[test]
fn checker_rejects_replayed_grant() {
    let rec = run_random_requests(7, 2, ControlUnitParams::paper());
    let mut evs = rec.events();
    let at = evs
        .iter()
        .position(|e| e.name == "partition" && e.kind == EventKind::AsyncBegin)
        .expect("at least one grant on an idle network");
    // Replay the grant while the wire is still held.
    let grant = evs[at].clone();
    evs.insert(at + 1, grant);
    let err = invariants::partition_alternation(&evs).unwrap_err();
    assert!(err.contains("double-granted"), "unexpected error: {err}");
}
