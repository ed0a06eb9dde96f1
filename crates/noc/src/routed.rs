//! Electrical packet-switched networks: bidirectional ring and 2-D mesh
//! (paper Fig. 10a/b).
//!
//! Cycle-level model: input-queued routers, round-robin port arbitration,
//! per-hop serialization over finite-bandwidth links, finite input buffers
//! with backpressure, and bubble flow control on the ring to avoid cyclic
//! buffer deadlock.

use crate::fabric::{Fifo, FlightBuffer, Flit, RrToken};
use crate::packet::{Delivery, Packet};
use crate::stats::NetStats;
use crate::{Network, NocError, Result};
use flumen_trace::{EventKind, TraceCategory, TraceEvent, TraceHandle};

/// Shape of a routed electrical network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutedTopology {
    /// Bidirectional ring of `nodes` routers.
    Ring {
        /// Router count.
        nodes: usize,
    },
    /// `width × height` mesh with XY dimension-ordered routing.
    Mesh {
        /// Routers per row.
        width: usize,
        /// Rows.
        height: usize,
    },
}

impl RoutedTopology {
    /// Total router/endpoint count.
    pub fn nodes(&self) -> usize {
        match self {
            RoutedTopology::Ring { nodes } => *nodes,
            RoutedTopology::Mesh { width, height } => width * height,
        }
    }
}

/// Tuning parameters for a routed network.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutedConfig {
    /// Link bandwidth in bits per core cycle (Table 1: 800 Gbps at 2.5 GHz
    /// = 320 bits/cycle).
    pub link_bits_per_cycle: u32,
    /// Router pipeline delay per hop, cycles.
    pub router_delay: u64,
    /// Wire/time-of-flight latency per hop, cycles.
    pub link_latency: u64,
    /// Input buffer capacity per port, packets.
    pub input_queue_pkts: usize,
}

impl Default for RoutedConfig {
    fn default() -> Self {
        RoutedConfig {
            link_bits_per_cycle: 320,
            router_delay: 2,
            link_latency: 1,
            input_queue_pkts: 8,
        }
    }
}

#[derive(Debug, PartialEq)]
struct Router {
    /// Input queues: one per neighbor in-port plus one local (last index).
    /// Capacity is enforced at the sender via the bubble rule, so the
    /// [`Fifo`]s stay unbounded and serialize like the raw queues.
    inputs: Vec<Fifo<Flit>>,
    /// Output-port busy horizon (serialization), indexed like out ports.
    out_busy_until: Vec<u64>,
    /// Round-robin token over input ports.
    rr: RrToken,
}

/// An electrical ring or mesh NoP.
///
/// Built from the shared `Fifo`/`RrToken`/`FlightBuffer` primitives with
/// the exact cycle behavior of the original hand-wired version. A step
/// visits only the routers that hold flits and the sources with packets
/// queued, found from two `u64` masks, so at most 64 routers are
/// supported.
#[derive(Debug)]
pub struct RoutedNetwork {
    topo: RoutedTopology,
    cfg: RoutedConfig,
    routers: Vec<Router>,
    /// Unbounded per-node source queues (open-loop injection).
    src_queues: Vec<Fifo<Packet>>,
    /// Packets on the wire, tagged `(dest_router, dest_in_port, pkt)`.
    in_flight: FlightBuffer<(usize, usize, Flit)>,
    cycle: u64,
    stats: NetStats,
    tracer: TraceHandle,
    /// Bit `r` is set iff router `r` holds a flit in some input queue.
    /// Derived from the queues, like the two fields below.
    occupied: u64,
    /// Bit `n` is set iff `src_queues[n]` is non-empty.
    sourcing: u64,
    /// Packets injected and not yet delivered, so [`Network::pending`] is
    /// O(1).
    live: usize,
    /// `routes[at * nodes + dst]`: the out port toward `dst` from `at`;
    /// the local port (the last) when `at == dst`.
    routes: Vec<u8>,
    /// `links[at * ports + p]`: `(next_router, in_port_at_next)` over out
    /// port `p`; `None` for the local port and past a mesh edge.
    links: Vec<Option<(usize, usize)>>,
}

/// The most routers a network supports: the occupancy masks are `u64`s.
const MAX_ROUTERS: usize = 64;

impl RoutedNetwork {
    /// Builds a routed network.
    ///
    /// # Errors
    ///
    /// Returns [`NocError::InvalidTopology`] for degenerate shapes.
    pub fn new(topo: RoutedTopology, cfg: RoutedConfig) -> Result<Self> {
        match topo {
            RoutedTopology::Ring { nodes } if nodes < 3 => {
                return Err(NocError::InvalidTopology {
                    reason: "ring needs ≥ 3 nodes".into(),
                })
            }
            RoutedTopology::Mesh { width, height } if width < 2 || height < 2 => {
                return Err(NocError::InvalidTopology {
                    reason: "mesh needs ≥ 2×2".into(),
                })
            }
            _ => {}
        }
        let n = topo.nodes();
        if n > MAX_ROUTERS {
            return Err(NocError::InvalidTopology {
                reason: format!("routed network needs ≤ {MAX_ROUTERS} routers, got {n}"),
            });
        }
        let ports = Self::neighbor_ports(&topo);
        let routers = (0..n)
            .map(|_| Router {
                inputs: (0..=ports).map(|_| Fifo::unbounded()).collect(),
                out_busy_until: vec![0; ports + 1],
                rr: RrToken::new(),
            })
            .collect();
        let routes = route_table(&topo);
        let links = link_table(&topo);
        Ok(RoutedNetwork {
            topo,
            cfg,
            routers,
            src_queues: (0..n).map(|_| Fifo::unbounded()).collect(),
            in_flight: FlightBuffer::new(),
            cycle: 0,
            stats: NetStats::new(n * (ports + 1)),
            tracer: TraceHandle::disabled(),
            occupied: 0,
            sourcing: 0,
            live: 0,
            routes,
            links,
        })
    }

    /// A 16-node ring with Table 1 parameters.
    ///
    /// # Panics
    ///
    /// Never panics for this fixed shape.
    pub fn ring_16() -> Self {
        RoutedNetwork::new(RoutedTopology::Ring { nodes: 16 }, RoutedConfig::default())
            // flumen-check: allow(no-panic-hot-path) — fixed 16-node shape, valid by construction
            .expect("16-node ring is valid")
    }

    /// A 4×4 mesh with Table 1 parameters.
    pub fn mesh_4x4() -> Self {
        RoutedNetwork::new(
            RoutedTopology::Mesh {
                width: 4,
                height: 4,
            },
            RoutedConfig::default(),
        )
        // flumen-check: allow(no-panic-hot-path) — fixed 4×4 shape, valid by construction
        .expect("4x4 mesh is valid")
    }

    fn neighbor_ports(topo: &RoutedTopology) -> usize {
        match topo {
            RoutedTopology::Ring { .. } => 2, // CW, CCW
            RoutedTopology::Mesh { .. } => 4, // E, W, N, S
        }
    }

    /// Ports per router: the neighbor ports, then the local port.
    fn ports(&self) -> usize {
        Self::neighbor_ports(&self.topo) + 1
    }

    /// Links a packet from `src` to `dst` crosses, walked over the route
    /// table.
    #[cfg(test)]
    pub(crate) fn hops(&self, src: usize, dst: usize) -> u64 {
        let (nodes, ports) = (self.topo.nodes(), self.ports());
        let (mut at, mut hops) = (src, 0);
        while at != dst {
            let port = usize::from(self.routes[at * nodes + dst]);
            (at, _) = self.links[at * ports + port].expect("a route stays on the network");
            hops += 1;
        }
        hops
    }

    /// Advances router `r`, moving at most one packet per input port. The
    /// caller turns every router's token once the cycle's routers have
    /// stepped.
    fn step_router(&mut self, r: usize) {
        let n = self.routers.len();
        let nports = self.routers[r].inputs.len();
        let local_port = nports - 1;
        let now = self.cycle;
        let mut in_port = self.routers[r].rr.pos() % nports;
        for _ in 0..nports {
            let port = in_port;
            in_port = if in_port == local_port {
                0
            } else {
                in_port + 1
            };
            let router = &self.routers[r];
            let Some(head) = router.inputs[port].front() else {
                continue;
            };
            let out = usize::from(self.routes[r * n + head.pkt.dst]);
            if head.ready_at > now || router.out_busy_until[out] > now {
                continue;
            }
            if out == local_port {
                // One ejection per cycle through the local out port.
                let Some(tp) = self.routers[r].inputs[port].pop_front() else {
                    continue;
                };
                self.routers[r].out_busy_until[out] = now + 1;
                self.in_flight.push(now + 1, (r, usize::MAX, tp));
                continue;
            }
            let Some((next, next_in)) = self.links[r * nports + out] else {
                continue;
            };
            // Backpressure: bubble flow control needs one spare slot for
            // through-traffic and two for injections (prevents ring
            // deadlock; harmless on the mesh).
            let spare_needed = if port == local_port { 2 } else { 1 };
            if self.routers[next].inputs[next_in].len() + spare_needed > self.cfg.input_queue_pkts {
                continue;
            }
            let Some(mut tp) = self.routers[r].inputs[port].pop_front() else {
                continue;
            };
            let ser = tp.pkt.ser_cycles(self.cfg.link_bits_per_cycle);
            self.routers[r].out_busy_until[out] = now + ser;
            let lid = r * nports + out;
            self.stats.link_busy[lid] += ser;
            self.stats.bit_hops += tp.pkt.bits as u64;
            tp.ready_at = now + ser + self.cfg.link_latency + self.cfg.router_delay;
            self.in_flight
                .push(now + ser + self.cfg.link_latency, (next, next_in, tp));
        }
        if self.routers[r].inputs.iter().all(Fifo::is_empty) {
            self.occupied &= !(1 << r);
        }
    }
}

/// `table[at * nodes + dst]`: the out port toward `dst` from `at`, the
/// local port when `at == dst`. Plain loops with a compare per entry, not
/// a `%` or `/`, keep building a network about as cheap as before the
/// table.
fn route_table(topo: &RoutedTopology) -> Vec<u8> {
    let n = topo.nodes();
    let mut table = vec![RoutedNetwork::neighbor_ports(topo) as u8; n * n];
    match *topo {
        RoutedTopology::Ring { nodes } => {
            for at in 0..nodes {
                let row = &mut table[at * nodes..][..nodes];
                // Clockwise up to half-way round, counter-clockwise beyond.
                for fwd in 1..nodes {
                    let dst = if at + fwd < nodes {
                        at + fwd
                    } else {
                        at + fwd - nodes
                    };
                    row[dst] = if fwd <= nodes / 2 { 0 } else { 1 };
                }
            }
        }
        RoutedTopology::Mesh { width, height } => {
            // XY order: east or west until the column matches, then north
            // or south.
            for ay in 0..height {
                for ax in 0..width {
                    let at = ay * width + ax;
                    let row = &mut table[at * n..][..n];
                    for dy in 0..height {
                        for dx in 0..width {
                            let dst = dy * width + dx;
                            if dst == at {
                                continue; // the local port, filled in above
                            }
                            row[dst] = if ax < dx {
                                0 // east
                            } else if ax > dx {
                                1 // west
                            } else if ay < dy {
                                3 // south
                            } else {
                                2 // north
                            };
                        }
                    }
                }
            }
        }
    }
    table
}

/// `table[at * ports + p]`: `(next_router, in_port_at_next)` over out
/// port `p` from router `at`; `None` for the local port and past a mesh
/// edge.
fn link_table(topo: &RoutedTopology) -> Vec<Option<(usize, usize)>> {
    let ports = RoutedNetwork::neighbor_ports(topo) + 1;
    let mut table = Vec::with_capacity(topo.nodes() * ports);
    match *topo {
        RoutedTopology::Ring { nodes } => {
            for at in 0..nodes {
                let cw = if at + 1 == nodes { 0 } else { at + 1 };
                let ccw = if at == 0 { nodes - 1 } else { at - 1 };
                // CW arrives on the CCW-side port and vice versa.
                table.extend([Some((cw, 1)), Some((ccw, 0)), None]);
            }
        }
        RoutedTopology::Mesh { width, height } => {
            for y in 0..height {
                for x in 0..width {
                    let at = y * width + x;
                    table.extend([
                        (x + 1 < width).then_some((at + 1, 1)), // east, arrives on west port
                        (x > 0).then(|| (at - 1, 0)),           // west
                        (y > 0).then(|| (at - width, 3)),       // north, arrives on south port
                        (y + 1 < height).then_some((at + width, 2)), // south
                        None,
                    ]);
                }
            }
        }
    }
    table
}

impl Network for RoutedNetwork {
    fn set_tracer(&mut self, tracer: TraceHandle) {
        self.tracer = tracer;
    }

    fn num_nodes(&self) -> usize {
        self.topo.nodes()
    }

    fn inject(&mut self, pkt: Packet) {
        // Electrical networks replicate multicasts at the source; each
        // replica gets its own id and its own trace span.
        if pkt.is_multicast() {
            for p in pkt.unicast_replicas() {
                self.inject(p);
            }
            return;
        }
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
            .with_arg("ndest", 1.0)
            .with_arg("bits", pkt.bits as f64)
        });
        self.sourcing |= 1 << pkt.src;
        self.live += 1;
        self.src_queues[pkt.src].push_back(pkt);
    }

    fn step(&mut self) -> Vec<Delivery> {
        let now = self.cycle;
        let local = self.ports() - 1;
        // Move source-queue heads into the local input port.
        let mut sources = self.sourcing;
        while sources != 0 {
            let node = sources.trailing_zeros() as usize;
            sources &= sources - 1;
            if self.routers[node].inputs[local].len() < self.cfg.input_queue_pkts {
                if let Some(pkt) = self.src_queues[node].pop_front() {
                    self.routers[node].inputs[local].push_back(Flit { pkt, ready_at: now });
                    self.occupied |= 1 << node;
                }
                if self.src_queues[node].is_empty() {
                    self.sourcing &= !(1 << node);
                }
            }
        }
        // Routers step in index order (an earlier router's dequeue frees
        // buffer space a later one's backpressure check sees); an empty
        // router would only have turned its token.
        let mut busy = self.occupied;
        while busy != 0 {
            let r = busy.trailing_zeros() as usize;
            busy &= busy - 1;
            self.step_router(r);
        }
        let nports = local + 1;
        for r in &mut self.routers {
            r.rr.rotate(nports);
        }
        // Deliver / hand over arrivals that are due.
        let mut deliveries = Vec::new();
        let Self {
            in_flight,
            routers,
            stats,
            tracer,
            occupied,
            live,
            ..
        } = self;
        in_flight.drain_due(now, |(node, in_port, tp)| {
            if in_port == usize::MAX {
                *live -= 1;
                let lat = now.saturating_sub(tp.pkt.created_at);
                stats.record_latency(lat);
                tracer.emit(|| {
                    TraceEvent::new(
                        TraceCategory::Noc,
                        "pkt",
                        EventKind::AsyncEnd,
                        now,
                        node as u32,
                    )
                    .with_id(tp.pkt.id)
                    .with_arg("lat", lat as f64)
                });
                deliveries.push(Delivery {
                    packet: tp.pkt,
                    at: now,
                });
            } else {
                routers[node].inputs[in_port].push_back(tp);
                *occupied |= 1 << node;
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
        self.live
    }

    /// Quiet until the earliest in-flight arrival and the earliest cycle a
    /// queued head stops waiting on its own `ready_at` or its out port.
    /// Not quiet when a source head can enter its local port or a head
    /// can move now. A ready head held only by bubble backpressure adds
    /// no bound: its downstream queue frees only when that queue's head
    /// moves, an event bounded in its own right.
    fn quiet_until(&self) -> Option<u64> {
        let now = self.cycle;
        let n = self.routers.len();
        let nports = self.ports();
        let local = nports - 1;
        let cap = self.cfg.input_queue_pkts;
        let mut sources = self.sourcing;
        while sources != 0 {
            let node = sources.trailing_zeros() as usize;
            sources &= sources - 1;
            if self.routers[node].inputs[local].len() < cap {
                return None;
            }
        }
        let mut until = u64::MAX;
        let mut held = self.occupied;
        while held != 0 {
            let r = held.trailing_zeros() as usize;
            held &= held - 1;
            let router = &self.routers[r];
            for (port, q) in router.inputs.iter().enumerate() {
                let Some(head) = q.front() else {
                    continue;
                };
                let out = usize::from(self.routes[r * n + head.pkt.dst]);
                let free_at = head.ready_at.max(router.out_busy_until[out]);
                if free_at > now {
                    until = until.min(free_at);
                    continue;
                }
                let blocked = self.links[r * nports + out].is_some_and(|(next, next_in)| {
                    let spare = if port == local { 2 } else { 1 };
                    self.routers[next].inputs[next_in].len() + spare > cap
                });
                if !blocked {
                    return None;
                }
            }
        }
        let until = until.min(self.in_flight.next_due().unwrap_or(u64::MAX));
        (until > now).then_some(until)
    }

    fn advance_quiet(&mut self, cycles: u64) {
        debug_assert!(
            self.quiet_until().is_some_and(|t| t - self.cycle >= cycles),
            "advance_quiet past the network's quiet span"
        );
        // A quiet step moves no flit; each router only turns its token.
        let nports = self.ports();
        for r in &mut self.routers {
            r.rr.advance(cycles, nports);
        }
        self.cycle += cycles;
        self.stats.cycles += cycles;
    }
}

// State equality: every field but the tracer. The masks and `live` are
// derived from the queues and compared too, so a jump that let them drift
// shows. `in_flight` compares in its Vec order: the arrival scan uses
// `swap_remove`, so delivery order depends on positions.
impl PartialEq for RoutedNetwork {
    fn eq(&self, other: &Self) -> bool {
        let RoutedNetwork {
            topo,
            cfg,
            routers,
            src_queues,
            in_flight,
            cycle,
            stats,
            tracer: _, // an output sink, not state
            occupied,
            sourcing,
            live,
            routes,
            links,
        } = self;
        *cycle == other.cycle
            && *live == other.live
            && *occupied == other.occupied
            && *sourcing == other.sourcing
            && *stats == other.stats
            && *in_flight == other.in_flight
            && *src_queues == other.src_queues
            && *routers == other.routers
            && *topo == other.topo
            && *cfg == other.cfg
            && *routes == other.routes
            && *links == other.links
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(net: &mut RoutedNetwork, cycles: u64) -> Vec<Delivery> {
        let mut out = Vec::new();
        for _ in 0..cycles {
            out.extend(net.step());
        }
        out
    }

    #[test]
    fn ring_delivers_a_packet() {
        let mut net = RoutedNetwork::ring_16();
        net.inject(Packet::new(1, 0, 4, 512, 0));
        let got = drain(&mut net, 200);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].packet.dst, 4);
        assert!(got[0].latency() > 0);
    }

    #[test]
    fn ring_takes_shorter_direction() {
        // 0 -> 15 is one hop CCW; latency should be far less than 15 hops.
        let mut net = RoutedNetwork::ring_16();
        net.inject(Packet::new(1, 0, 15, 512, 0));
        let got = drain(&mut net, 200);
        let lat_short = got[0].latency();
        let mut net2 = RoutedNetwork::ring_16();
        net2.inject(Packet::new(2, 0, 8, 512, 0));
        let got2 = drain(&mut net2, 400);
        assert!(lat_short < got2[0].latency());
    }

    #[test]
    fn mesh_xy_routing_delivers() {
        let mut net = RoutedNetwork::mesh_4x4();
        for dst in 1..16 {
            net.inject(Packet::new(dst as u64, 0, dst, 512, 0));
        }
        let got = drain(&mut net, 500);
        assert_eq!(got.len(), 15);
        let mut seen: Vec<usize> = got.iter().map(|d| d.packet.dst).collect();
        seen.sort_unstable();
        assert_eq!(seen, (1..16).collect::<Vec<_>>());
    }

    #[test]
    fn mesh_farther_is_slower() {
        let mut near = RoutedNetwork::mesh_4x4();
        near.inject(Packet::new(1, 0, 1, 512, 0));
        let l_near = drain(&mut near, 200)[0].latency();
        let mut far = RoutedNetwork::mesh_4x4();
        far.inject(Packet::new(1, 0, 15, 512, 0));
        let l_far = drain(&mut far, 200)[0].latency();
        assert!(l_far > l_near, "{l_far} vs {l_near}");
    }

    #[test]
    fn trace_spans_cover_inject_to_eject() {
        use flumen_trace::RecordingTracer;
        let rec = RecordingTracer::new();
        let mut net = RoutedNetwork::ring_16();
        net.set_tracer(rec.handle());
        net.inject(Packet::multicast(1, 0, &[2, 4], 512, 0));
        drain(&mut net, 200);
        let evs = rec.events();
        let begins = evs
            .iter()
            .filter(|e| e.kind == EventKind::AsyncBegin)
            .count();
        let ends = evs.iter().filter(|e| e.kind == EventKind::AsyncEnd).count();
        assert_eq!(begins, 2, "replicated multicast begins one span per copy");
        assert_eq!(ends, 2);
        assert_eq!(flumen_trace::invariants::packet_conservation(&evs), Ok(2));
    }

    #[test]
    fn multicast_is_replicated_on_electrical() {
        let mut net = RoutedNetwork::mesh_4x4();
        net.inject(Packet::multicast(1, 0, &[1, 2, 3], 512, 0));
        assert_eq!(net.stats().injected, 3);
        let got = drain(&mut net, 500);
        assert_eq!(got.len(), 3);
    }

    #[test]
    fn heavy_load_saturates_but_drains() {
        // Flood the ring, then stop injecting; everything must drain
        // (deadlock freedom via bubble flow control).
        let mut net = RoutedNetwork::ring_16();
        let mut id = 0u64;
        for c in 0..200u64 {
            for src in 0..16 {
                net.inject(Packet::new(id, src, (src + 8) % 16, 512, c));
                id += 1;
            }
            net.step();
        }
        for _ in 0..200_000 {
            net.step();
            if net.pending() == 0 {
                break;
            }
        }
        assert_eq!(net.pending(), 0, "network failed to drain");
        assert_eq!(net.stats().delivered, net.stats().injected);
    }

    #[test]
    fn utilization_counters_advance() {
        let mut net = RoutedNetwork::mesh_4x4();
        net.inject(Packet::new(1, 0, 15, 4096, 0));
        drain(&mut net, 300);
        assert!(net.stats().avg_link_utilization() > 0.0);
        assert!(net.stats().bit_hops >= 4096 * 6); // 6 hops minimum
    }

    #[test]
    fn rejects_degenerate_shapes() {
        assert!(
            RoutedNetwork::new(RoutedTopology::Ring { nodes: 2 }, RoutedConfig::default()).is_err()
        );
        assert!(RoutedNetwork::new(
            RoutedTopology::Mesh {
                width: 1,
                height: 4
            },
            RoutedConfig::default()
        )
        .is_err());
    }

    /// The occupancy masks and the live count, recounted from the queues.
    fn recounted(net: &RoutedNetwork) -> (u64, u64, usize) {
        let mut occupied = 0;
        let mut sourcing = 0;
        let mut live = net.in_flight.len();
        for (i, (r, q)) in net.routers.iter().zip(&net.src_queues).enumerate() {
            let held: usize = r.inputs.iter().map(Fifo::len).sum();
            if held > 0 {
                occupied |= 1 << i;
            }
            if !q.is_empty() {
                sourcing |= 1 << i;
            }
            live += held + q.len();
        }
        (occupied, sourcing, live)
    }

    #[test]
    fn masks_and_live_count_track_queues() {
        use rand::{Rng, SeedableRng};
        let shapes = [
            RoutedTopology::Ring { nodes: 16 },
            RoutedTopology::Ring { nodes: 5 },
            RoutedTopology::Mesh {
                width: 4,
                height: 4,
            },
        ];
        for topo in shapes {
            let n = topo.nodes();
            for seed in 0..6 {
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                let mut net = RoutedNetwork::new(topo, RoutedConfig::default()).unwrap();
                for id in 0..800u64 {
                    match rng.gen_range(0..10) {
                        0..=3 => {
                            let src = rng.gen_range(0..n);
                            let dst = (src + rng.gen_range(1..n)) % n;
                            net.inject(Packet::new(id, src, dst, 512, net.cycle()));
                        }
                        4 => {
                            let src = rng.gen_range(0..n);
                            let dests = [(src + 1) % n, (src + 2) % n];
                            net.inject(Packet::multicast(id, src, &dests, 512, net.cycle()));
                        }
                        _ => {
                            net.step();
                        }
                    }
                    assert_eq!(
                        (net.occupied, net.sourcing, net.live),
                        recounted(&net),
                        "{topo:?} seed {seed} id {id}"
                    );
                    assert_eq!(net.pending(), net.live);
                }
            }
        }
    }

    /// Two long packets from one source: the first serializes over out
    /// port 0 until cycle 7 and arrives at cycle 8; the second, ready
    /// since cycle 1, waits for the port. The quiet span ends when the
    /// port frees: not at once, and not at the arrival.
    #[test]
    fn quiet_span_ends_when_a_busy_out_port_frees() {
        let mut net = RoutedNetwork::ring_16();
        net.inject(Packet::new(1, 0, 1, 2048, 0));
        net.inject(Packet::new(2, 0, 1, 2048, 0));
        net.step();
        assert_eq!(net.quiet_until(), None, "the second packet can enter");
        net.step();
        assert_eq!(net.cycle(), 2);
        assert_eq!(net.quiet_until(), Some(7));
        net.advance_quiet(5);
        assert_eq!(
            net.quiet_until(),
            None,
            "the port is free: the second packet moves"
        );
    }

    #[test]
    fn router_count_is_bounded_by_the_masks() {
        let cfg = RoutedConfig::default;
        assert!(RoutedNetwork::new(RoutedTopology::Ring { nodes: 64 }, cfg()).is_ok());
        assert!(RoutedNetwork::new(RoutedTopology::Ring { nodes: 65 }, cfg()).is_err());
        let mesh = |width, height| RoutedTopology::Mesh { width, height };
        assert!(RoutedNetwork::new(mesh(8, 8), cfg()).is_ok());
        assert!(RoutedNetwork::new(mesh(13, 5), cfg()).is_err());
        // The 64th router is reachable: its bit is the mask's top bit.
        let mut ring = RoutedNetwork::new(RoutedTopology::Ring { nodes: 64 }, cfg()).unwrap();
        ring.inject(Packet::new(1, 63, 62, 512, 0));
        let got = drain(&mut ring, 100);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].packet.dst, 62);
    }

    #[test]
    fn latency_grows_with_load() {
        use crate::traffic::{BernoulliInjector, TrafficPattern};
        use rand::SeedableRng;
        let mut lats = Vec::new();
        for rate in [0.05, 0.6] {
            let mut net = RoutedNetwork::ring_16();
            let mut inj = BernoulliInjector::new(rate, 512, 320, TrafficPattern::UniformRandom);
            let mut rng = rand::rngs::StdRng::seed_from_u64(1);
            for c in 0..4000u64 {
                for p in inj.generate(16, c, &mut rng) {
                    net.inject(p);
                }
                net.step();
            }
            lats.push(net.stats().avg_latency().unwrap());
        }
        assert!(lats[1] > lats[0] * 1.5, "{lats:?}");
    }
}
