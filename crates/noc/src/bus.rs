//! The optical bus NoP (paper Fig. 10c).
//!
//! Nodes share a small set of circular waveguides; a transmission claims a
//! whole bus for its serialization time (token-style arbitration,
//! round-robin over nodes). Because only `B` transmissions can be in flight
//! at once — versus `N` for the non-blocking MZIM crossbar — the bus shows
//! much earlier saturation under load (paper Fig. 11), and its worst-case
//! optical loss scales with `k·p` (paper Fig. 12a, [`crate::loss`] lives in
//! the photonics crate).
//!
//! Multicast is free: optical power on the shared waveguide reaches every
//! node's drop filters, so one transmission serves all destinations.

use crate::fabric::{Fifo, FlightBuffer, RrToken};
use crate::packet::{Delivery, Packet};
use crate::stats::NetStats;
use crate::{Network, NocError, Result};
use flumen_trace::{EventKind, TraceCategory, TraceEvent, TraceHandle};

/// Tuning parameters for an optical bus.
#[derive(Debug, Clone, PartialEq)]
pub struct BusConfig {
    /// Number of shared waveguides (concurrent transmissions).
    pub buses: usize,
    /// Bandwidth of one bus, bits per core cycle (64 λ × 10 Gbps at
    /// 2.5 GHz = 256 bits/cycle).
    pub bus_bits_per_cycle: u32,
    /// One-way propagation + E/O + O/E latency, cycles.
    pub port_latency: u64,
    /// Arbitration (token) delay charged per grant, cycles.
    pub arbitration_delay: u64,
}

impl Default for BusConfig {
    fn default() -> Self {
        // Token circulation on the shared waveguide costs several cycles
        // per grant; the MZIM's centralized wavefront arbiter does not.
        BusConfig {
            buses: 8,
            bus_bits_per_cycle: 256,
            port_latency: 3,
            arbitration_delay: 4,
        }
    }
}

/// A shared-waveguide optical bus network.
///
/// Built from the shared buffering primitives — `Fifo` source queues,
/// an `RrToken` for the circulating grant token, and a `FlightBuffer`
/// for transmissions on the waveguide — with the exact cycle behavior
/// of the original hand-wired implementation.
#[derive(Debug)]
pub struct OpticalBus {
    nodes: usize,
    cfg: BusConfig,
    src_queues: Vec<Fifo<Packet>>,
    bus_busy_until: Vec<u64>,
    rr: RrToken,
    in_flight: FlightBuffer<Packet>,
    cycle: u64,
    stats: NetStats,
    tracer: TraceHandle,
}

impl OpticalBus {
    /// Builds an optical bus network.
    ///
    /// # Errors
    ///
    /// Returns [`NocError::InvalidTopology`] for zero nodes or buses.
    pub fn new(nodes: usize, cfg: BusConfig) -> Result<Self> {
        if nodes < 2 || cfg.buses == 0 {
            return Err(NocError::InvalidTopology {
                reason: "bus needs ≥ 2 nodes and ≥ 1 waveguide".into(),
            });
        }
        let buses = cfg.buses;
        Ok(OpticalBus {
            nodes,
            cfg,
            src_queues: (0..nodes).map(|_| Fifo::unbounded()).collect(),
            bus_busy_until: vec![0; buses],
            rr: RrToken::new(),
            in_flight: FlightBuffer::new(),
            cycle: 0,
            stats: NetStats::new(buses),
            tracer: TraceHandle::disabled(),
        })
    }

    /// The 16-node, 8-waveguide, 64-λ configuration used in the paper's
    /// comparisons (bisection ≈ 5.1 Tbps).
    pub fn optbus_16() -> Self {
        // flumen-check: allow(no-panic-hot-path) — fixed paper shape, valid by construction
        OpticalBus::new(16, BusConfig::default()).expect("default optbus is valid")
    }

    /// Current source-queue depths (for scheduler utilization estimates).
    pub fn queue_depths(&self) -> Vec<usize> {
        self.src_queues.iter().map(|q| q.len()).collect()
    }
}

impl Network for OpticalBus {
    fn set_tracer(&mut self, tracer: TraceHandle) {
        self.tracer = tracer;
    }

    fn num_nodes(&self) -> usize {
        self.nodes
    }

    fn inject(&mut self, pkt: Packet) {
        self.stats.injected += 1;
        self.stats.bits_injected += pkt.bits as u64;
        let now = self.cycle;
        self.tracer.emit(|| {
            TraceEvent::new(
                TraceCategory::Noc,
                "pkt",
                EventKind::AsyncBegin,
                now,
                pkt.src as u32,
            )
            .with_id(pkt.id)
            .with_arg("ndest", pkt.dests().len() as f64)
            .with_arg("bits", pkt.bits as f64)
        });
        self.src_queues[pkt.src].push_back(pkt);
    }

    fn step(&mut self) -> Vec<Delivery> {
        let now = self.cycle;
        // Grant free buses to waiting nodes, round-robin.
        for b in 0..self.cfg.buses {
            if self.bus_busy_until[b] > now {
                continue;
            }
            // Scan nodes starting at the token position.
            for node in self.rr.scan(self.nodes) {
                if let Some(pkt) = self.src_queues[node].pop_front() {
                    let ser = pkt.ser_cycles(self.cfg.bus_bits_per_cycle);
                    let busy = now + self.cfg.arbitration_delay + ser;
                    self.bus_busy_until[b] = busy;
                    self.stats.link_busy[b] += ser + self.cfg.arbitration_delay;
                    self.stats.bit_hops += pkt.bits as u64;
                    self.in_flight.push(busy + self.cfg.port_latency, pkt);
                    self.rr.grant(node, self.nodes);
                    break;
                }
            }
        }
        // Deliveries.
        let mut deliveries = Vec::new();
        let Self {
            in_flight,
            stats,
            tracer,
            ..
        } = self;
        in_flight.drain_due(now, |pkt| {
            for d in pkt.dests() {
                let lat = now.saturating_sub(pkt.created_at);
                stats.record_latency(lat);
                tracer.emit(|| {
                    TraceEvent::new(
                        TraceCategory::Noc,
                        "pkt",
                        EventKind::AsyncEnd,
                        now,
                        d as u32,
                    )
                    .with_id(pkt.id)
                    .with_arg("lat", lat as f64)
                });
                let mut p = pkt.clone();
                p.dst = d;
                p.extra_dests.clear();
                deliveries.push(Delivery { packet: p, at: now });
            }
        });
        self.cycle += 1;
        self.stats.cycles += 1;
        deliveries
    }

    fn cycle(&self) -> u64 {
        self.cycle
    }

    fn stats(&self) -> &NetStats {
        &self.stats
    }

    fn stats_mut(&mut self) -> &mut NetStats {
        &mut self.stats
    }

    fn pending(&self) -> usize {
        self.src_queues.iter().map(|q| q.len()).sum::<usize>() + self.in_flight.len()
    }

    /// Quiet until the earliest arrival. With a packet queued it is also
    /// bounded by the earliest bus to free, and not quiet at all while a
    /// bus is free.
    fn quiet_until(&self) -> Option<u64> {
        let now = self.cycle;
        let mut until = self.in_flight.next_due().unwrap_or(u64::MAX);
        if self.src_queues.iter().any(|q| !q.is_empty()) {
            let free_at = self
                .bus_busy_until
                .iter()
                .copied()
                .min()
                .unwrap_or(u64::MAX);
            until = until.min(free_at);
        }
        (until > now).then_some(until)
    }

    fn advance_quiet(&mut self, cycles: u64) {
        debug_assert!(
            self.quiet_until().is_some_and(|t| t - self.cycle >= cycles),
            "advance_quiet past the network's quiet span"
        );
        // A quiet step grants nothing, and scanning the token does not
        // move it: only the clock turns.
        self.cycle += cycles;
        self.stats.cycles += cycles;
    }
}

// State equality: every field but the tracer. As with the crossbar,
// `in_flight` compares in its Vec order because delivery scanning uses
// `swap_remove`.
impl PartialEq for OpticalBus {
    fn eq(&self, other: &Self) -> bool {
        let OpticalBus {
            nodes,
            cfg,
            src_queues,
            bus_busy_until,
            rr,
            in_flight,
            cycle,
            stats,
            tracer: _, // an output sink, not state
        } = self;
        *cycle == other.cycle
            && *rr == other.rr
            && *stats == other.stats
            && *bus_busy_until == other.bus_busy_until
            && *in_flight == other.in_flight
            && *src_queues == other.src_queues
            && *nodes == other.nodes
            && *cfg == other.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(net: &mut OpticalBus, cycles: u64) -> Vec<Delivery> {
        let mut out = Vec::new();
        for _ in 0..cycles {
            out.extend(net.step());
        }
        out
    }

    #[test]
    fn delivers_point_to_point() {
        let mut net = OpticalBus::optbus_16();
        net.inject(Packet::new(1, 3, 11, 512, 0));
        let got = drain(&mut net, 100);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].packet.dst, 11);
        // ser = 2 + arb 1 + port 3 = delivery around cycle 6.
        assert!(got[0].latency() <= 10);
    }

    #[test]
    fn native_multicast_single_transmission() {
        let mut net = OpticalBus::optbus_16();
        net.inject(Packet::multicast(1, 0, &[2, 5, 9], 512, 0));
        assert_eq!(net.stats().injected, 1);
        let got = drain(&mut net, 100);
        assert_eq!(got.len(), 3);
        // One transmission's worth of bus occupancy.
        assert_eq!(net.stats().bit_hops, 512);
    }

    #[test]
    fn concurrency_limited_by_bus_count() {
        let cfg = BusConfig {
            buses: 2,
            ..BusConfig::default()
        };
        let mut net = OpticalBus::new(16, cfg).unwrap();
        // 8 simultaneous senders, only 2 buses: deliveries spread in time.
        for s in 0..8 {
            net.inject(Packet::new(s as u64, s, s + 8, 2048, 0));
        }
        let got = drain(&mut net, 200);
        assert_eq!(got.len(), 8);
        let first = got.iter().map(|d| d.at).min().unwrap();
        let last = got.iter().map(|d| d.at).max().unwrap();
        // 8 packets × 8 ser cycles / 2 buses ≈ 32 cycles of spread.
        assert!(last - first >= 16, "spread {first}..{last}");
    }

    #[test]
    fn round_robin_is_fair() {
        let mut net = OpticalBus::new(
            4,
            BusConfig {
                buses: 1,
                ..BusConfig::default()
            },
        )
        .unwrap();
        for s in 0..4 {
            for k in 0..4 {
                net.inject(Packet::new((s * 4 + k) as u64, s, (s + 1) % 4, 512, 0));
            }
        }
        let got = drain(&mut net, 400);
        assert_eq!(got.len(), 16);
        // The first four deliveries come from four different sources.
        let mut first_srcs: Vec<usize> = got.iter().take(4).map(|d| d.packet.src).collect();
        first_srcs.sort_unstable();
        assert_eq!(first_srcs, vec![0, 1, 2, 3]);
    }

    #[test]
    fn saturates_earlier_than_crossbar_capacity() {
        // Offered load of 0.9 with 8 buses and 16 nodes cannot be served
        // (aggregate capacity = 8/16 = 0.5 of per-node bandwidth).
        use crate::traffic::{BernoulliInjector, TrafficPattern};
        use rand::SeedableRng;
        let mut net = OpticalBus::optbus_16();
        let mut inj = BernoulliInjector::new(0.9, 512, 256, TrafficPattern::UniformRandom);
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        for c in 0..3000u64 {
            for p in inj.generate(16, c, &mut rng) {
                net.inject(p);
            }
            net.step();
        }
        assert!(
            net.pending() > 500,
            "backlog should accumulate: {}",
            net.pending()
        );
    }

    #[test]
    fn rejects_bad_config() {
        assert!(OpticalBus::new(1, BusConfig::default()).is_err());
        assert!(OpticalBus::new(
            8,
            BusConfig {
                buses: 0,
                ..BusConfig::default()
            }
        )
        .is_err());
    }
}
