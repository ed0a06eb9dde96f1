//! Property: on a drained network, `advance_idle(k)` is exactly `k` calls
//! to `step()`. Each case drives a network through random traffic until it
//! drains at a random cycle, then crosses `k` idle cycles both ways: the
//! canonical snapshot bytes and the statistics must match, and one packet
//! injected afterwards must arrive on the same cycle with the same latency.

use flumen_noc::fabric::torus_4x4;
use flumen_noc::{
    BusConfig, CrossbarConfig, MzimCrossbar, Network, OpticalBus, Packet, RoutedConfig,
    RoutedNetwork, RoutedTopology,
};
use flumen_sim::{Snapshotable, ToJson};
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
/// with `advance_idle` and on the other with `step`, and compares.
fn check<N: Network + Snapshotable>(
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

    jumped.advance_idle(k);
    for _ in 0..k {
        prop_assert!(stepped.step().is_empty(), "a drained network delivered");
    }
    prop_assert_eq!(jumped.cycle(), stepped.cycle());
    prop_assert_eq!(
        jumped.snapshot().to_canonical(),
        stepped.snapshot().to_canonical()
    );
    prop_assert_eq!(
        jumped.stats().to_json().to_canonical(),
        stepped.stats().to_json().to_canonical()
    );

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
        let ring5 = || {
            RoutedNetwork::new(RoutedTopology::Ring { nodes: 5 }, RoutedConfig::default()).unwrap()
        };
        check(ring5, &all(5), seed, 1, k)?;
    }

    #[test]
    fn optbus_advance_idle_equals_steps(seed in any::<u64>(), linger in 0u64..8, k in 0u64..2000) {
        let bus = || OpticalBus::new(16, BusConfig::default()).unwrap();
        check(bus, &all(16), seed, linger, k)?;
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
        let reserved: Vec<usize> = (0..16).filter(|w| reserved_mask & (1 << w) != 0).collect();
        let free: Vec<usize> = (0..16).filter(|w| !reserved.contains(w)).collect();
        prop_assume!(free.len() >= 2);
        let crossbar = || {
            let mut net = MzimCrossbar::new(16, CrossbarConfig::default()).unwrap();
            net.reserve_wires(&reserved).unwrap();
            net
        };
        check(crossbar, &free, seed, linger, k)?;
    }

    #[test]
    fn torus_advance_idle_equals_steps(seed in any::<u64>(), linger in 0u64..8, k in 0u64..500) {
        check(torus_4x4, &all(16), seed, linger, k)?;
    }
}
