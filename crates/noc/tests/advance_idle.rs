//! Property: inside a span reported by `quiet_until`, `advance_quiet(k)`
//! is exactly `k` calls to `step()`.
//!
//! * Drained networks: each case drives a network through random traffic
//!   until it drains at a random cycle, then crosses `k` idle cycles both
//!   ways: the two must be equal (`PartialEq`, every field but the
//!   tracer) with equal statistics, and one packet injected afterwards
//!   must arrive on the same cycle with the same latency.
//! * Mid-traffic: two copies take the same random injections; one jumps
//!   every quiet span it meets (to its end or to a random cycle inside
//!   it), the other steps. Each stepped cycle of a span must deliver
//!   nothing, the states and statistics must match after every jump,
//!   and every later delivery must match.
//! * Negative control: equal twins become unequal after one more step or
//!   one more packet on one of them, so the comparisons are not vacuous.

use flumen_noc::fabric::torus_4x4;
use flumen_noc::{
    BusConfig, CrossbarConfig, MzimCrossbar, Network, OpticalBus, Packet, RoutedConfig,
    RoutedNetwork, RoutedTopology,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random unicast traffic among `nodes`, injected over a random stretch of
/// cycles, then stepped until the network drains and for `linger` more
/// (empty) cycles.
fn drain_at_random_cycle<N: Network>(net: &mut N, nodes: &[usize], seed: u64, linger: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let packets = rng.gen_range(0..40u64);
    for id in 0..packets {
        let src = nodes[rng.gen_range(0..nodes.len())];
        let dst = nodes[rng.gen_range(0..nodes.len())];
        if src != dst {
            net.inject(Packet::new(id, src, dst, 512, net.cycle()));
        }
        for _ in 0..rng.gen_range(0..4) {
            net.step();
        }
    }
    for _ in 0..100_000 {
        if net.pending() == 0 {
            break;
        }
        net.step();
    }
    assert_eq!(net.pending(), 0, "network failed to drain");
    for _ in 0..linger {
        net.step();
    }
}

/// Builds the same drained network twice, crosses `k` idle cycles on one
/// with `advance_quiet` and on the other with `step`, and compares.
fn check<N: Network + PartialEq>(
    mk: impl Fn() -> N,
    nodes: &[usize],
    seed: u64,
    linger: u64,
    k: u64,
) -> Result<(), TestCaseError> {
    let mut jumped = mk();
    let mut stepped = mk();
    drain_at_random_cycle(&mut jumped, nodes, seed, linger);
    drain_at_random_cycle(&mut stepped, nodes, seed, linger);

    prop_assert_eq!(
        jumped.quiet_until(),
        Some(u64::MAX),
        "a drained network is quiet"
    );
    jumped.advance_quiet(k);
    for _ in 0..k {
        prop_assert!(stepped.step().is_empty(), "a drained network delivered");
    }
    prop_assert_eq!(jumped.cycle(), stepped.cycle());
    prop_assert!(jumped == stepped, "jumped and stepped states differ");
    prop_assert_eq!(jumped.stats(), stepped.stats());

    let (src, dst) = (nodes[0], nodes[nodes.len() - 1]);
    let mut arrival = Vec::new();
    for net in [&mut jumped, &mut stepped] {
        net.inject(Packet::new(1 << 20, src, dst, 512, net.cycle()));
        let got = (0..10_000).find_map(|_| net.step().pop());
        let d = got.ok_or_else(|| TestCaseError("probe packet never arrived".into()))?;
        arrival.push((d.at, d.latency()));
    }
    prop_assert_eq!(arrival[0], arrival[1]);
    Ok(())
}

fn all(n: usize) -> Vec<usize> {
    (0..n).collect()
}

/// Feeds the same random injections to a network that jumps quiet spans
/// and to one that steps every cycle, until both drain. Returns how many
/// mid-traffic spans were jumped.
fn jump_quiet_spans<N: Network + PartialEq>(
    mk: impl Fn() -> N,
    nodes: &[usize],
    seed: u64,
    rate: f64,
) -> Result<u64, TestCaseError> {
    let mut rng = StdRng::seed_from_u64(seed);
    // `(cycle, id, src, dst, bits)`, by cycle.
    let mut injections = Vec::new();
    let mut cycle = 0u64;
    for id in 0..rng.gen_range(1..60u64) {
        cycle += rng.gen_range(0..(8.0 / rate) as u64);
        let src = nodes[rng.gen_range(0..nodes.len())];
        let dst = nodes[rng.gen_range(0..nodes.len())];
        let bits = [64, 512, 2048][rng.gen_range(0..3)];
        if src != dst {
            injections.push((cycle, id, src, dst, bits));
        }
    }
    let mut jumped = mk();
    let mut stepped = mk();
    let mut next = 0;
    let mut jumps = 0;
    for _ in 0..200_000 {
        let now = jumped.cycle();
        prop_assert_eq!(now, stepped.cycle());
        while next < injections.len() && injections[next].0 == now {
            let (at, id, src, dst, bits) = injections[next];
            for net in [&mut jumped, &mut stepped] {
                net.inject(Packet::new(id, src, dst, bits, at));
            }
            next += 1;
        }
        if next == injections.len() && jumped.pending() == 0 {
            prop_assert_eq!(stepped.pending(), 0);
            break;
        }
        let quiet = jumped.quiet_until();
        prop_assert_eq!(quiet, stepped.quiet_until());
        let next_inject = injections.get(next).map_or(u64::MAX, |i| i.0);
        match quiet {
            Some(t) if jumped.pending() > 0 => {
                prop_assert!(t > now, "quiet span {t} ends before cycle {now}");
                let span = t.min(next_inject).min(now + 5_000) - now;
                let k = if rng.gen_bool(0.5) {
                    span
                } else {
                    rng.gen_range(1..=span)
                };
                jumped.advance_quiet(k);
                for _ in 0..k {
                    prop_assert!(stepped.step().is_empty(), "a quiet step delivered");
                }
                prop_assert!(jumped == stepped, "states differ after a jump at {now}");
                prop_assert_eq!(jumped.stats(), stepped.stats());
                jumps += 1;
            }
            _ => {
                let (a, b) = (jumped.step(), stepped.step());
                prop_assert_eq!(a, b);
            }
        }
    }
    prop_assert_eq!(jumped.pending(), 0, "network failed to drain");
    prop_assert!(jumped == stepped, "drained states differ");
    Ok(jumps)
}

fn ring5() -> RoutedNetwork {
    RoutedNetwork::new(RoutedTopology::Ring { nodes: 5 }, RoutedConfig::default()).unwrap()
}

fn bus16() -> OpticalBus {
    OpticalBus::new(16, BusConfig::default()).unwrap()
}

/// A crossbar with the wires of `reserved_mask` reserved, and its free
/// endpoints.
fn reserved_crossbar(reserved_mask: u16) -> (impl Fn() -> MzimCrossbar, Vec<usize>) {
    let reserved: Vec<usize> = (0..16).filter(|w| reserved_mask & (1 << w) != 0).collect();
    let free = (0..16).filter(|w| !reserved.contains(w)).collect();
    let mk = move || {
        let mut net = MzimCrossbar::new(16, CrossbarConfig::default()).unwrap();
        net.reserve_wires(&reserved).unwrap();
        net
    };
    (mk, free)
}

/// A ring holding one packet between hops is quiet until its arrival,
/// and jumping there keeps the delivery cycle.
#[test]
fn ring_with_a_packet_between_hops_is_quiet() {
    let mut jumped = RoutedNetwork::ring_16();
    let mut stepped = RoutedNetwork::ring_16();
    for net in [&mut jumped, &mut stepped] {
        net.inject(Packet::new(1, 0, 4, 512, 0));
        assert!(net.step().is_empty());
    }
    assert_eq!(jumped.pending(), 1);
    let t = jumped.quiet_until().expect("a packet on the wire is quiet");
    assert!(
        t > jumped.cycle() && t < u64::MAX,
        "span ends at the arrival, got {t}"
    );
    jumped.advance_quiet(t - jumped.cycle());
    let got: Vec<_> = [&mut jumped, &mut stepped]
        .into_iter()
        .map(|net| (0..200).find_map(|_| net.step().pop()).map(|d| d.at))
        .collect();
    assert!(got[0].is_some());
    assert_eq!(got[0], got[1]);
}

/// Drives twins through the same traffic until they drain and match,
/// then shows that one more step, or one more packet, on one twin makes
/// them unequal.
fn differ_after_one_more_step_or_packet<N: Network + PartialEq>(mk: impl Fn() -> N, name: &str) {
    let nodes = all(mk().num_nodes());
    let twins = || {
        let (mut a, mut b) = (mk(), mk());
        drain_at_random_cycle(&mut a, &nodes, 3, 2);
        drain_at_random_cycle(&mut b, &nodes, 3, 2);
        assert!(a == b, "{name}: twins differ");
        (a, b)
    };
    let (mut a, b) = twins();
    a.step();
    assert!(a != b, "{name}: equality missed a step");
    let (mut a, b) = twins();
    a.inject(Packet::new(1 << 20, 0, 1, 512, a.cycle()));
    assert!(a != b, "{name}: equality missed a packet");
}

#[test]
fn one_more_step_or_packet_breaks_equality() {
    let (crossbar, _) = reserved_crossbar(0);
    differ_after_one_more_step_or_packet(ring5, "ring5");
    differ_after_one_more_step_or_packet(RoutedNetwork::ring_16, "ring");
    differ_after_one_more_step_or_packet(RoutedNetwork::mesh_4x4, "mesh");
    differ_after_one_more_step_or_packet(bus16, "optbus");
    differ_after_one_more_step_or_packet(crossbar, "crossbar");
    differ_after_one_more_step_or_packet(torus_4x4, "torus");
}

/// Every mid-traffic run meets quiet spans, so the properties below are
/// not vacuous on any network.
#[test]
fn mid_traffic_runs_jump_quiet_spans() {
    let (crossbar, free) = reserved_crossbar(0b1111);
    let jumps = [
        ("ring5", jump_quiet_spans(ring5, &all(5), 7, 0.05)),
        (
            "ring",
            jump_quiet_spans(RoutedNetwork::ring_16, &all(16), 7, 0.05),
        ),
        (
            "mesh",
            jump_quiet_spans(RoutedNetwork::mesh_4x4, &all(16), 7, 0.05),
        ),
        ("optbus", jump_quiet_spans(bus16, &all(16), 7, 0.05)),
        ("crossbar", jump_quiet_spans(crossbar, &free, 7, 0.05)),
    ];
    for (name, got) in jumps {
        let got = got.unwrap_or_else(|e| panic!("{name}: {e:?}"));
        assert!(got >= 5, "{name}: only {got} quiet spans jumped");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn ring_advance_idle_equals_steps(seed in any::<u64>(), linger in 0u64..8, k in 0u64..2000) {
        check(RoutedNetwork::ring_16, &all(16), seed, linger, k)?;
    }

    #[test]
    fn mesh_advance_idle_equals_steps(seed in any::<u64>(), linger in 0u64..8, k in 0u64..2000) {
        check(RoutedNetwork::mesh_4x4, &all(16), seed, linger, k)?;
    }

    #[test]
    fn odd_ring_advance_idle_equals_steps(seed in any::<u64>(), k in 0u64..200) {
        check(ring5, &all(5), seed, 1, k)?;
    }

    #[test]
    fn optbus_advance_idle_equals_steps(seed in any::<u64>(), linger in 0u64..8, k in 0u64..2000) {
        check(bus16, &all(16), seed, linger, k)?;
    }

    /// Reserved wires carry no traffic, so the packets and the probe run
    /// among the free endpoints only.
    #[test]
    fn crossbar_with_reserved_wires_advance_idle_equals_steps(
        seed in any::<u64>(),
        linger in 0u64..8,
        k in 0u64..2000,
        reserved_mask in any::<u16>(),
    ) {
        let (crossbar, free) = reserved_crossbar(reserved_mask);
        prop_assume!(free.len() >= 2);
        check(crossbar, &free, seed, linger, k)?;
    }

    #[test]
    fn odd_ring_quiet_spans_mid_traffic(seed in any::<u64>(), rate in 0.01f64..0.5) {
        jump_quiet_spans(ring5, &all(5), seed, rate)?;
    }

    #[test]
    fn ring_quiet_spans_mid_traffic(seed in any::<u64>(), rate in 0.01f64..0.5) {
        jump_quiet_spans(RoutedNetwork::ring_16, &all(16), seed, rate)?;
    }

    #[test]
    fn mesh_quiet_spans_mid_traffic(seed in any::<u64>(), rate in 0.01f64..0.5) {
        jump_quiet_spans(RoutedNetwork::mesh_4x4, &all(16), seed, rate)?;
    }

    #[test]
    fn optbus_quiet_spans_mid_traffic(seed in any::<u64>(), rate in 0.01f64..0.5) {
        jump_quiet_spans(bus16, &all(16), seed, rate)?;
    }

    #[test]
    fn crossbar_with_reserved_wires_quiet_spans_mid_traffic(
        seed in any::<u64>(),
        rate in 0.01f64..0.5,
        reserved_mask in any::<u16>(),
    ) {
        let (crossbar, free) = reserved_crossbar(reserved_mask);
        prop_assume!(free.len() >= 2);
        jump_quiet_spans(crossbar, &free, seed, rate)?;
    }

    #[test]
    fn torus_advance_idle_equals_steps(seed in any::<u64>(), linger in 0u64..8, k in 0u64..500) {
        check(torus_4x4, &all(16), seed, linger, k)?;
    }
}
