//! The Flumen MZIM interconnect as a network (paper Fig. 10d).
//!
//! Once an optical signal enters the mesh it propagates unimpeded to the
//! photodetector, so at the network level the fabric behaves like a
//! **non-blocking crossbar** with a centralized wavefront arbiter (the MZIM
//! control unit, paper §3.4). Establishing a new input→output connection
//! reprograms MZI phases, which costs about 1 ns ≈ 3 core cycles; holding an
//! existing connection costs nothing. Multicast is physical: one input
//! splits to many outputs in a single transmission.
//!
//! Wire ranges can be *reserved* for compute partitions
//! ([`MzimCrossbar::reserve_wires`]): reserved endpoints neither send nor
//! receive, which is exactly the network-side effect of Algorithm 1 carving
//! a compute partition out of the fabric.

use crate::fabric::{Fifo, FlightBuffer, Ledger};
use crate::packet::{Delivery, Packet};
use crate::stats::NetStats;
use crate::wavefront::WavefrontArbiter;
use crate::{Network, NocError, Result};
use flumen_trace::{TraceCategory, TraceEvent, TraceHandle};

/// Tuning parameters for the MZIM crossbar.
#[derive(Debug, Clone, PartialEq)]
pub struct CrossbarConfig {
    /// Per-endpoint bandwidth, bits per core cycle (64 λ × 10 Gbps at
    /// 2.5 GHz = 256 bits/cycle).
    pub bits_per_cycle: u32,
    /// Phase-programming time for a new connection, cycles
    /// (1 ns ≈ 3 cycles at 2.5 GHz, Table 2 / §4.1).
    pub reconfig_cycles: u64,
    /// E/O + time-of-flight + O/E latency, cycles.
    pub port_latency: u64,
}

impl Default for CrossbarConfig {
    fn default() -> Self {
        CrossbarConfig {
            bits_per_cycle: 256,
            reconfig_cycles: 3,
            port_latency: 2,
        }
    }
}

/// The Flumen MZIM fabric viewed as a non-blocking crossbar network.
///
/// Two crossbars are equal when every field is: the queue counts and
/// request rows are derived from the queues and compared too, and
/// `in_flight` compares in its Vec order, since the delivery loop scans
/// with `swap_remove` and so delivery order depends on positions.
#[derive(Debug, PartialEq)]
pub struct MzimCrossbar {
    nodes: usize,
    cfg: CrossbarConfig,
    /// Virtual output queues: `voq[i][j]` holds input `i`'s packets for
    /// output `j` (eliminates head-of-line blocking, as in the control
    /// unit's per-endpoint request buffers).
    voq: Vec<Vec<Fifo<Packet>>>,
    /// Multicast packets queue separately per input and are served first.
    mcast_queues: Vec<Fifo<Packet>>,
    /// Packets across all of `voq` and all of `mcast_queues`, kept so
    /// [`Network::pending`] is O(1); derived from the queues.
    queued_unicast: usize,
    queued_mcast: usize,
    /// Bit `j` of `requests[i]` is set iff `voq[i][j]` is non-empty: the
    /// arbiter's request row for input `i`. Derived from `voq`.
    requests: Vec<u64>,
    arb: WavefrontArbiter,
    in_busy_until: Vec<u64>,
    out_busy_until: Vec<u64>,
    /// Last output each input was connected to (for reconfig charging).
    last_config: Vec<Option<usize>>,
    /// Wires reserved for compute partitions, bit `w` for wire `w`.
    reserved: u64,
    in_flight: FlightBuffer<Packet>,
    ledger: Ledger,
}

impl MzimCrossbar {
    /// Builds an `n`-endpoint MZIM crossbar.
    ///
    /// # Errors
    ///
    /// Returns [`NocError::InvalidTopology`] outside 2..=64 endpoints: the
    /// arbiter holds one input's requests in a `u64`.
    pub fn new(nodes: usize, cfg: CrossbarConfig) -> Result<Self> {
        if !(2..=64).contains(&nodes) {
            return Err(NocError::InvalidTopology {
                reason: format!("crossbar needs 2..=64 nodes, got {nodes}"),
            });
        }
        Ok(MzimCrossbar {
            nodes,
            cfg,
            voq: (0..nodes)
                .map(|_| (0..nodes).map(|_| Fifo::unbounded()).collect())
                .collect(),
            mcast_queues: (0..nodes).map(|_| Fifo::unbounded()).collect(),
            queued_unicast: 0,
            queued_mcast: 0,
            requests: vec![0; nodes],
            arb: WavefrontArbiter::new(nodes),
            in_busy_until: vec![0; nodes],
            out_busy_until: vec![0; nodes],
            last_config: vec![None; nodes],
            reserved: 0,
            in_flight: FlightBuffer::new(),
            ledger: Ledger::new(nodes),
        })
    }

    /// The 16-endpoint, 64-λ configuration from the paper.
    pub fn flumen_16() -> Self {
        // flumen-check: allow(no-panic-hot-path) — fixed paper shape, valid by construction
        MzimCrossbar::new(16, CrossbarConfig::default()).expect("16-node crossbar is valid")
    }

    /// Reserves endpoints for a compute partition: they stop sending and
    /// receiving until released. Traffic already queued stays queued.
    ///
    /// # Errors
    ///
    /// Returns [`NocError::InvalidNode`] for out-of-range wires.
    pub fn reserve_wires(&mut self, wires: &[usize]) -> Result<()> {
        for &w in wires {
            if w >= self.nodes {
                return Err(NocError::InvalidNode {
                    node: w,
                    nodes: self.nodes,
                });
            }
        }
        let now = self.ledger.cycle;
        for &w in wires {
            self.reserved |= 1 << w;
            self.ledger
                .tracer
                .emit(|| TraceEvent::instant(TraceCategory::Noc, "wire_reserve", now, w as u32));
        }
        Ok(())
    }

    /// Releases previously reserved endpoints.
    ///
    /// # Errors
    ///
    /// Returns [`NocError::InvalidNode`] for out-of-range wires.
    pub fn release_wires(&mut self, wires: &[usize]) -> Result<()> {
        for &w in wires {
            if w >= self.nodes {
                return Err(NocError::InvalidNode {
                    node: w,
                    nodes: self.nodes,
                });
            }
        }
        let now = self.ledger.cycle;
        for &w in wires {
            self.reserved &= !(1 << w);
            self.ledger
                .tracer
                .emit(|| TraceEvent::instant(TraceCategory::Noc, "wire_release", now, w as u32));
        }
        Ok(())
    }

    /// Which endpoints are currently reserved for compute.
    pub fn reserved_wires(&self) -> Vec<usize> {
        (0..self.nodes)
            .filter(|&w| self.reserved >> w & 1 == 1)
            .collect()
    }

    /// Request-buffer occupancies per input — the MZIM control unit's
    /// buffer state used for the β utilization estimate (Algorithm 1).
    pub fn queue_depths(&self) -> Vec<usize> {
        (0..self.nodes)
            .map(|i| self.voq[i].iter().map(Fifo::len).sum::<usize>() + self.mcast_queues[i].len())
            .collect()
    }

    /// Starts transmitting a packet from input `input` (already dequeued).
    /// The input and every destination stay busy past `now`, since
    /// serialization takes at least one cycle.
    fn start(&mut self, input: usize, pkt: Packet, now: u64) {
        let unicast = !pkt.is_multicast();
        let ser = pkt.ser_cycles(self.cfg.bits_per_cycle);
        // Reconfiguration charge: new unicast path, or any multicast tree.
        let reconf = if unicast && self.last_config[input] == Some(pkt.dst) {
            0
        } else {
            self.ledger.stats.reconfigurations += 1;
            self.ledger.tracer.emit(|| {
                TraceEvent::instant(TraceCategory::Noc, "reconfig", now, input as u32)
                    .with_id(pkt.id)
                    .with_arg("ndest", pkt.dest_iter().count() as f64)
            });
            self.cfg.reconfig_cycles
        };
        self.last_config[input] = unicast.then_some(pkt.dst);
        let busy = now + reconf + ser;
        self.in_busy_until[input] = busy;
        for d in pkt.dest_iter() {
            self.out_busy_until[d] = busy;
        }
        self.ledger.stats.link_busy[input] += reconf + ser;
        self.ledger.stats.bit_hops += pkt.bits as u64;
        self.in_flight.push(busy + self.cfg.port_latency, pkt);
    }

    /// One cycle of connection set-up: multicast heads first (they need
    /// several outputs at once), then the unicast VOQs through the
    /// wavefront arbiter. Grants start in input order, which fixes the
    /// order of `in_flight` and so the order of same-cycle deliveries.
    fn allocate(&mut self, now: u64) {
        let mut row_busy = self.reserved;
        let mut col_busy = self.reserved;
        for i in 0..self.nodes {
            if self.in_busy_until[i] > now {
                row_busy |= 1 << i;
            }
            if self.out_busy_until[i] > now {
                col_busy |= 1 << i;
            }
        }
        if self.queued_mcast > 0 {
            for i in 0..self.nodes {
                if row_busy >> i & 1 == 1 {
                    continue;
                }
                let Some(head) = self.mcast_queues[i].front() else {
                    continue;
                };
                let dests = head.dest_iter().fold(0u64, |m, d| m | 1 << d);
                if dests & col_busy != 0 {
                    continue;
                }
                if let Some(pkt) = self.mcast_queues[i].pop_front() {
                    self.queued_mcast -= 1;
                    self.start(i, pkt, now);
                    row_busy |= 1 << i;
                    col_busy |= dests;
                }
            }
        }
        let grants = self.arb.arbitrate(&self.requests, row_busy, col_busy);
        for (i, j) in grants.iter() {
            let voq = &mut self.voq[i][j];
            if let Some(pkt) = voq.pop_front() {
                if voq.is_empty() {
                    self.requests[i] &= !(1 << j);
                }
                self.queued_unicast -= 1;
                self.start(i, pkt, now);
            }
        }
    }
}

impl Network for MzimCrossbar {
    fn set_tracer(&mut self, tracer: TraceHandle) {
        self.ledger.tracer = tracer;
    }

    fn num_nodes(&self) -> usize {
        self.nodes
    }

    fn inject(&mut self, pkt: Packet) {
        self.ledger.inject(&pkt);
        if pkt.is_multicast() {
            self.queued_mcast += 1;
            self.mcast_queues[pkt.src].push_back(pkt);
        } else {
            self.queued_unicast += 1;
            let (src, dst) = (pkt.src, pkt.dst);
            self.requests[src] |= 1 << dst;
            self.voq[src][dst].push_back(pkt);
        }
    }

    fn step(&mut self) -> Vec<Delivery> {
        let now = self.ledger.cycle;
        if self.queued_unicast + self.queued_mcast > 0 {
            self.allocate(now);
        } else {
            self.arb.advance(1);
        }
        let mut deliveries = Vec::new();
        let ledger = &mut self.ledger;
        self.in_flight
            .drain_due(now, |pkt| ledger.deliver(pkt, &mut deliveries));
        self.ledger.tick(1);
        deliveries
    }

    fn cycle(&self) -> u64 {
        self.ledger.cycle
    }

    fn stats(&self) -> &NetStats {
        &self.ledger.stats
    }

    fn stats_mut(&mut self) -> &mut NetStats {
        &mut self.ledger.stats
    }

    fn pending(&self) -> usize {
        self.queued_unicast + self.queued_mcast + self.in_flight.len()
    }

    /// Quiet while nothing is queued, until the earliest arrival.
    fn quiet_until(&self) -> Option<u64> {
        if self.queued_unicast + self.queued_mcast > 0 {
            return None;
        }
        let until = self.in_flight.next_due().unwrap_or(u64::MAX);
        (until > self.ledger.cycle).then_some(until)
    }

    fn advance_quiet(&mut self, cycles: u64) {
        debug_assert!(
            self.quiet_until()
                .is_some_and(|t| t - self.ledger.cycle >= cycles),
            "advance_quiet past the network's quiet span"
        );
        // A quiet step starts and delivers nothing; the arbiter still
        // turns its priority diagonal once per cycle.
        self.arb.advance(cycles);
        self.ledger.tick(cycles);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(net: &mut MzimCrossbar, cycles: u64) -> Vec<Delivery> {
        let mut out = Vec::new();
        for _ in 0..cycles {
            out.extend(net.step());
        }
        out
    }

    #[test]
    fn delivers_point_to_point() {
        let mut net = MzimCrossbar::flumen_16();
        net.inject(Packet::new(1, 2, 9, 512, 0));
        let got = drain(&mut net, 50);
        assert_eq!(got.len(), 1);
        // reconfig 3 + ser 2 + port 2 = 7 cycles.
        assert!(got[0].latency() <= 8, "{}", got[0].latency());
    }

    #[test]
    fn non_blocking_parallel_transfers() {
        let mut net = MzimCrossbar::flumen_16();
        // A full permutation: all 16 transfers complete in one round.
        for s in 0..16 {
            net.inject(Packet::new(s as u64, s, (s + 5) % 16, 512, 0));
        }
        let got = drain(&mut net, 20);
        assert_eq!(got.len(), 16);
        let max_at = got.iter().map(|d| d.at).max().unwrap();
        assert!(
            max_at <= 10,
            "all transfers should overlap, last at {max_at}"
        );
    }

    #[test]
    fn repeated_path_skips_reconfiguration() {
        let mut net = MzimCrossbar::flumen_16();
        net.inject(Packet::new(1, 0, 5, 512, 0));
        drain(&mut net, 20);
        let reconf_after_first = net.stats().reconfigurations;
        net.inject(Packet::new(2, 0, 5, 512, net.cycle()));
        drain(&mut net, 20);
        assert_eq!(net.stats().reconfigurations, reconf_after_first);
        // A different destination forces a reconfiguration.
        net.inject(Packet::new(3, 0, 6, 512, net.cycle()));
        drain(&mut net, 20);
        assert_eq!(net.stats().reconfigurations, reconf_after_first + 1);
    }

    #[test]
    fn physical_multicast_counts_one_transmission() {
        let mut net = MzimCrossbar::flumen_16();
        net.inject(Packet::multicast(1, 0, &[3, 7, 11, 15], 512, 0));
        let got = drain(&mut net, 30);
        assert_eq!(got.len(), 4);
        assert_eq!(net.stats().bit_hops, 512);
        assert_eq!(net.stats().injected, 1);
    }

    #[test]
    fn trace_multicast_one_begin_many_ends() {
        use flumen_trace::{EventKind, RecordingTracer};
        let rec = RecordingTracer::new();
        let mut net = MzimCrossbar::flumen_16();
        net.set_tracer(rec.handle());
        net.inject(Packet::multicast(1, 0, &[3, 7, 11, 15], 512, 0));
        drain(&mut net, 30);
        let evs = rec.events();
        let begins: Vec<_> = evs
            .iter()
            .filter(|e| e.kind == EventKind::AsyncBegin)
            .collect();
        assert_eq!(begins.len(), 1, "physical multicast is one transmission");
        assert_eq!(begins[0].arg("ndest"), Some(4.0));
        let ends = evs.iter().filter(|e| e.kind == EventKind::AsyncEnd).count();
        assert_eq!(ends, 4);
        assert!(evs.iter().any(|e| e.name == "reconfig"));
        assert_eq!(flumen_trace::invariants::packet_conservation(&evs), Ok(1));
    }

    #[test]
    fn output_contention_serializes() {
        let mut net = MzimCrossbar::flumen_16();
        for s in 0..4 {
            net.inject(Packet::new(s as u64, s, 9, 512, 0));
        }
        let got = drain(&mut net, 100);
        assert_eq!(got.len(), 4);
        let mut ats: Vec<u64> = got.iter().map(|d| d.at).collect();
        ats.sort_unstable();
        // Each needs reconfig(3)+ser(2): arrivals separated by ≥ 5 cycles.
        for w in ats.windows(2) {
            assert!(w[1] - w[0] >= 5, "{ats:?}");
        }
    }

    #[test]
    fn reserved_wires_block_traffic() {
        let mut net = MzimCrossbar::flumen_16();
        net.reserve_wires(&[8, 9, 10, 11]).unwrap();
        net.inject(Packet::new(1, 8, 0, 512, 0)); // reserved source
        net.inject(Packet::new(2, 0, 9, 512, 0)); // reserved destination
        net.inject(Packet::new(3, 1, 2, 512, 0)); // unaffected
        let got = drain(&mut net, 50);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].packet.id, 3);
        // Release and the stuck packets flow.
        net.release_wires(&[8, 9, 10, 11]).unwrap();
        let got2 = drain(&mut net, 50);
        assert_eq!(got2.len(), 2);
    }

    #[test]
    fn reserve_validates_range() {
        let mut net = MzimCrossbar::flumen_16();
        assert!(net.reserve_wires(&[99]).is_err());
        assert!(net.release_wires(&[99]).is_err());
    }

    #[test]
    fn queue_depths_reflect_backlog() {
        let mut net = MzimCrossbar::flumen_16();
        for k in 0..5 {
            net.inject(Packet::new(k, 3, 4, 512, 0));
        }
        assert_eq!(net.queue_depths()[3], 5);
        drain(&mut net, 100);
        assert_eq!(net.queue_depths()[3], 0);
    }

    #[test]
    fn pending_counters_track_queues() {
        use rand::{Rng, SeedableRng};
        for seed in 0..8 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut net = MzimCrossbar::flumen_16();
            for id in 0..600u64 {
                match rng.gen_range(0..10) {
                    0..=3 => {
                        let src = rng.gen_range(0..16);
                        let dst = (src + rng.gen_range(1..16)) % 16;
                        net.inject(Packet::new(id, src, dst, 512, net.cycle()));
                    }
                    4 => {
                        let src = rng.gen_range(0..16);
                        let dests = [(src + 1) % 16, (src + 5) % 16, (src + 9) % 16];
                        net.inject(Packet::multicast(id, src, &dests, 512, net.cycle()));
                    }
                    5 => net.reserve_wires(&[rng.gen_range(0..16)]).unwrap(),
                    6 => net.release_wires(&[rng.gen_range(0..16)]).unwrap(),
                    _ => {
                        net.step();
                    }
                }
                let queued: usize = net.queue_depths().iter().sum();
                assert_eq!(net.pending(), queued + net.in_flight.len(), "seed {seed}");
                for (i, row) in net.voq.iter().enumerate() {
                    for (j, q) in row.iter().enumerate() {
                        let bit = net.requests[i] >> j & 1 == 1;
                        assert_eq!(
                            bit,
                            !q.is_empty(),
                            "seed {seed} id {id}: request bit {i}->{j}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn endpoint_count_is_bounded() {
        for nodes in [0, 1, 65, 128] {
            assert!(
                MzimCrossbar::new(nodes, CrossbarConfig::default()).is_err(),
                "{nodes} nodes"
            );
        }
        for nodes in [2, 64] {
            assert!(MzimCrossbar::new(nodes, CrossbarConfig::default()).is_ok());
        }
    }

    /// The top endpoint of a 64-node crossbar sends and receives like any
    /// other: a packet 0→63 and one 63→0 take the latency a 16-node
    /// crossbar gives 0→15.
    #[test]
    fn top_endpoint_of_64_nodes_delivers() {
        let mut small = MzimCrossbar::flumen_16();
        small.inject(Packet::new(1, 0, 15, 512, 0));
        let want = drain(&mut small, 50);
        assert_eq!(want.len(), 1);
        let mut big = MzimCrossbar::new(64, CrossbarConfig::default()).unwrap();
        big.inject(Packet::new(1, 0, 63, 512, 0));
        big.inject(Packet::new(2, 63, 0, 512, 0));
        let got = drain(&mut big, 50);
        assert_eq!(got.len(), 2);
        for d in &got {
            assert_eq!(d.latency(), want[0].latency(), "packet {}", d.packet.id);
        }
        assert_eq!(big.pending(), 0);
        assert_eq!(big.requests, vec![0; 64]);
    }

    #[test]
    fn sustains_high_uniform_load() {
        use crate::traffic::{BernoulliInjector, TrafficPattern};
        use rand::SeedableRng;
        let mut net = MzimCrossbar::flumen_16();
        // 1024-bit packets amortize the 3-cycle reconfiguration; offered
        // 0.3 of link bandwidth is well below the ~0.55 saturation point.
        let mut inj = BernoulliInjector::new(0.3, 1024, 256, TrafficPattern::UniformRandom);
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for c in 0..5000u64 {
            for p in inj.generate(16, c, &mut rng) {
                net.inject(p);
            }
            net.step();
        }
        // Below saturation the backlog stays bounded.
        assert!(net.pending() < 200, "pending {}", net.pending());
        let avg = net.stats().avg_latency().unwrap();
        assert!(avg < 60.0, "avg latency {avg}");
    }
}
