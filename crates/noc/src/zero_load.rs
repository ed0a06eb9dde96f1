//! Zero-load latency in closed form: one Fig. 11-sized packet per
//! (src, dst) pair, each into a fresh network, arrives after exactly the
//! cycles its configuration implies. The routed ring and mesh pay a
//! packet's serialization at every hop: they are store-and-forward.

use crate::fabric::torus_4x4;
use crate::{
    BusConfig, CrossbarConfig, MzimCrossbar, Network, OpticalBus, Packet, RoutedConfig,
    RoutedNetwork,
};

/// Fig. 11's packet size, bits.
const BITS: u32 = 1024;

/// Endpoints of every network below.
const NODES: usize = 16;

/// What the composed torus adds to the routed form: the cycles its
/// endpoint ingress and egress channels and their credit handshakes take.
/// A constant of the composed fabric, not of its configuration.
const TORUS_ENDPOINT_CYCLES: u64 = 3;

/// The latency of one packet from `src` to `dst` through `net`.
fn latency(mut net: impl Network, src: usize, dst: usize) -> u64 {
    net.inject(Packet::new(1, src, dst, BITS, 0));
    let delivered = (0..1_000).find_map(|_| net.step().pop());
    delivered.expect("an idle network delivers").latency()
}

/// Serialization of one packet at `bits_per_cycle`.
fn ser(bits_per_cycle: u32) -> u64 {
    u64::from(BITS.div_ceil(bits_per_cycle))
}

fn pairs() -> impl Iterator<Item = (usize, usize)> {
    (0..NODES).flat_map(|s| (0..NODES).filter(move |&d| d != s).map(move |d| (s, d)))
}

#[test]
fn zero_load_latency_is_closed_form() {
    let routed = RoutedConfig::default();
    let per_hop = routed.router_delay + routed.link_latency + ser(routed.link_bits_per_cycle);
    for (name, mk) in [
        ("ring", RoutedNetwork::ring_16 as fn() -> RoutedNetwork),
        ("mesh", RoutedNetwork::mesh_4x4),
    ] {
        let routes = mk();
        for (src, dst) in pairs() {
            let want = 1 + routes.hops(src, dst) * per_hop;
            assert_eq!(latency(mk(), src, dst), want, "{name} {src} → {dst}");
        }
    }

    // Dimension-order routing on the 4×4 torus takes the shorter way
    // round each ring.
    let ring_hops = |a: usize, b: usize| {
        let d = (b + 4 - a) % 4;
        d.min(4 - d) as u64
    };
    for (src, dst) in pairs() {
        let h = ring_hops(src % 4, dst % 4) + ring_hops(src / 4, dst / 4);
        let want = TORUS_ENDPOINT_CYCLES + 1 + h * per_hop;
        assert_eq!(latency(torus_4x4(), src, dst), want, "torus {src} → {dst}");
    }

    // 11 cycles at Table 1 parameters.
    let bus = BusConfig::default();
    let want = bus.arbitration_delay + ser(bus.bus_bits_per_cycle) + bus.port_latency;
    for (src, dst) in pairs() {
        let net = OpticalBus::optbus_16();
        assert_eq!(latency(net, src, dst), want, "optbus {src} → {dst}");
    }

    // 9 cycles: a fresh crossbar programs every first connection.
    let xbar = CrossbarConfig::default();
    let want = xbar.reconfig_cycles + ser(xbar.bits_per_cycle) + xbar.port_latency;
    for (src, dst) in pairs() {
        let net = MzimCrossbar::new(NODES, xbar.clone()).expect("a 16-node crossbar");
        assert_eq!(latency(net, src, dst), want, "crossbar {src} → {dst}");
    }
}
