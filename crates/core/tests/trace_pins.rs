//! Pinned trace bytes: the structured event stream of every network, and
//! of the Fig. 1 traced Flumen-A run, hashes to a recorded digest.
//!
//! `trace_conservation` checks only the streams' structure (every `pkt`
//! span opens once and closes once per destination). These digests pin
//! the bytes themselves — event order, timestamps, tracks, ids and
//! arguments — so a change to how a network counts, queues or traces its
//! packets shows here even when every span still balances.

use flumen::{run_benchmark_traced, RuntimeConfig, SystemTopology};
use flumen_noc::fabric::torus_4x4;
use flumen_noc::traffic::{BernoulliInjector, TrafficPattern};
use flumen_noc::{MzimCrossbar, Network, OpticalBus, Packet, RoutedNetwork};
use flumen_trace::{jsonl, RecordingTracer};
use flumen_workloads::ImageBlur;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The recorder's events as JSONL, with the event count and the digest of
/// the bytes. A dropped event would make the digest describe a truncated
/// stream, so none may be dropped.
fn digest(rec: &Arc<RecordingTracer>) -> (usize, u64) {
    assert_eq!(rec.dropped(), 0, "the recorder dropped events");
    let events = rec.events();
    let mut bytes = Vec::new();
    let lines = jsonl::write_jsonl(&mut bytes, &events).expect("writing to a Vec cannot fail");
    (lines, fnv1a(&bytes))
}

/// Drives `net` for 600 cycles of seeded uniform Bernoulli traffic at 0.3
/// of link bandwidth, with a three-way multicast from a rotating source
/// every 40 cycles, then drains it; returns the digest of its trace.
fn bernoulli_digest(mut net: Box<dyn Network>) -> (usize, u64) {
    let rec = RecordingTracer::new();
    net.set_tracer(rec.handle());
    let n = net.num_nodes();
    let mut rng = StdRng::seed_from_u64(0x7ace);
    let mut inj = BernoulliInjector::new(0.3, 512, 256, TrafficPattern::UniformRandom);
    for c in 0..600u64 {
        for p in inj.generate(n, c, &mut rng) {
            net.inject(p);
        }
        if c % 40 == 0 {
            let src = (c / 40) as usize % n;
            let dsts = [1, 5, 11].map(|k| (src + k) % n);
            net.inject(Packet::multicast((1 << 40) | c, src, &dsts, 1024, c));
        }
        net.step();
    }
    flumen_noc::harness::drain(net.as_mut(), 100_000);
    assert_eq!(net.pending(), 0, "the network failed to drain");
    digest(&rec)
}

#[test]
fn network_traces_are_pinned() {
    let got = [
        ("ring", bernoulli_digest(Box::new(RoutedNetwork::ring_16()))),
        (
            "mesh",
            bernoulli_digest(Box::new(RoutedNetwork::mesh_4x4())),
        ),
        (
            "optbus",
            bernoulli_digest(Box::new(OpticalBus::optbus_16())),
        ),
        (
            "crossbar",
            bernoulli_digest(Box::new(MzimCrossbar::flumen_16())),
        ),
        ("torus", bernoulli_digest(Box::new(torus_4x4()))),
    ];
    let pinned = [
        ("ring", (2922, 0x4a85_c692_485b_dfb4)),
        ("mesh", (2922, 0x592c_6cba_48d0_7920)),
        ("optbus", (2892, 0x4b99_83ec_76e3_8262)),
        ("crossbar", (4216, 0xd744_7279_a91d_459d)),
        ("torus", (2922, 0x6f83_e6e8_e67c_aaa7)),
    ];
    assert_eq!(got, pinned, "{got:#x?}");
}

/// The run `fig01_link_utilization --trace` writes: Image Blur (small) on
/// Flumen-A, sampling the system counters every 100 cycles.
#[test]
fn fig01_trace_is_pinned() {
    let rec = RecordingTracer::new();
    let cfg = RuntimeConfig {
        trace_interval: 100,
        ..RuntimeConfig::paper()
    };
    let r = run_benchmark_traced(
        &ImageBlur::small(),
        SystemTopology::FlumenA,
        &cfg,
        rec.handle(),
    );
    assert!(!r.truncated);
    let got = digest(&rec);
    assert_eq!(got, (638, 0x8870_43ef_cfe7_8564), "{got:#x?}");
}
