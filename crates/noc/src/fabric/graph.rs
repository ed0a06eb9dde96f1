//! Wiring routers into a steppable fabric.

use super::channel::{ChannelId, Channels, CREDIT_UNBOUNDED};
use super::router::{Flit, RouterNode};
use super::Ledger;
use crate::packet::{Delivery, Packet};
use crate::stats::NetStats;
use crate::{Network, NocError, Result};
use flumen_trace::{TraceCategory, TraceEvent, TraceHandle};
use std::collections::VecDeque;

/// One external attachment point: where the fabric accepts packets from
/// a source queue and where it hands them back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Endpoint {
    /// Channel carrying injected packets into the fabric.
    pub(crate) ingress: ChannelId,
    /// Channel carrying delivered packets out of the fabric.
    pub(crate) egress: ChannelId,
}

/// Collects channels and routers, then validates the wiring.
#[derive(Debug)]
pub(crate) struct FabricBuilder {
    chans: Channels<Flit>,
    routers: Vec<RouterNode>,
}

impl FabricBuilder {
    /// An empty builder.
    pub(crate) fn new() -> Self {
        FabricBuilder {
            chans: Channels::new(),
            routers: Vec::new(),
        }
    }

    /// Adds a channel (wire latency clamped to ≥ 1 cycle, in-flight
    /// capacity clamped to ≥ 1).
    pub(crate) fn channel(&mut self, latency: u64, capacity: usize) -> ChannelId {
        self.chans.add(latency, capacity)
    }

    /// Adds a router; its ports are validated at [`FabricBuilder::build`].
    /// Routers step in the order they were added.
    pub(crate) fn add(&mut self, router: RouterNode) {
        self.routers.push(router);
    }

    /// Validates the wiring and produces the fabric, one source queue per
    /// endpoint. Every channel must have exactly one producer (a router
    /// out port or an endpoint ingress) and exactly one consumer (a
    /// router in port or an endpoint egress).
    ///
    /// # Errors
    ///
    /// Returns [`NocError::InvalidTopology`] naming the first mis-wired
    /// channel.
    pub(crate) fn build(self, endpoints: Vec<Endpoint>) -> Result<ComposedFabric> {
        let n = self.chans.len();
        let mut producers = vec![0usize; n];
        let mut consumers = vec![0usize; n];
        let tally = |counts: &mut Vec<usize>, id: ChannelId, what: &str| -> Result<()> {
            match counts.get_mut(id.index()) {
                Some(c) => {
                    *c += 1;
                    Ok(())
                }
                None => Err(NocError::InvalidTopology {
                    reason: format!("{what} references unknown channel {}", id.index()),
                }),
            }
        };
        for r in &self.routers {
            let name = format!("router{}", r.id);
            for &c in &r.out_ports {
                tally(&mut producers, c, &name)?;
            }
            for &c in &r.in_ports {
                tally(&mut consumers, c, &name)?;
            }
        }
        for (k, ep) in endpoints.iter().enumerate() {
            tally(&mut producers, ep.ingress, &format!("endpoint {k} ingress"))?;
            tally(&mut consumers, ep.egress, &format!("endpoint {k} egress"))?;
        }
        for (i, (&p, &c)) in producers.iter().zip(&consumers).enumerate() {
            if p != 1 || c != 1 {
                return Err(NocError::InvalidTopology {
                    reason: format!(
                        "channel {i} has {p} producer(s) and {c} consumer(s); \
                         expected exactly one of each"
                    ),
                });
            }
        }
        // Per-link utilization is per channel.
        let ledger = Ledger::new(self.chans.len());
        Ok(ComposedFabric {
            chans: self.chans,
            routers: self.routers,
            src_queues: endpoints.iter().map(|_| VecDeque::new()).collect(),
            endpoints,
            ledger,
        })
    }
}

/// A composed packet fabric: `RouterNode`s on credit channels plus the
/// open-loop source queues, statistics, and tracing that make it a
/// drop-in [`Network`] — usable by the harness, the sweep executor, and
/// the system engine exactly like the hand-written fabrics.
#[derive(Debug, PartialEq)]
pub struct ComposedFabric {
    chans: Channels<Flit>,
    routers: Vec<RouterNode>,
    endpoints: Vec<Endpoint>,
    src_queues: Vec<VecDeque<Packet>>,
    ledger: Ledger,
}

impl Network for ComposedFabric {
    fn set_tracer(&mut self, tracer: TraceHandle) {
        self.ledger.tracer = tracer;
    }

    fn num_nodes(&self) -> usize {
        self.src_queues.len()
    }

    fn inject(&mut self, pkt: Packet) {
        // Composed fabrics are electrical-style: multicasts replicate at
        // the source, each replica with its own id and trace span.
        if pkt.is_multicast() {
            for p in pkt.unicast_replicas() {
                self.inject(p);
            }
            return;
        }
        self.ledger.inject(&pkt);
        if let Some(q) = self.src_queues.get_mut(pkt.src) {
            q.push_back(pkt);
        }
    }

    /// Runs one cycle of the phased evaluation order (see the module
    /// docs).
    fn step(&mut self) -> Vec<Delivery> {
        let now = self.ledger.cycle;
        // Phase 1: ready — credits from pre-cycle state.
        for r in &self.routers {
            r.publish_ready(&mut self.chans);
        }
        for ep in &self.endpoints {
            self.chans.publish_credits(ep.egress, CREDIT_UNBOUNDED);
        }
        // Phase 2: ingress — at most one packet per endpoint.
        for (ep, q) in self.endpoints.iter().zip(&mut self.src_queues) {
            if self.chans.effective_credits(ep.ingress) >= 1 && self.chans.can_send(ep.ingress) {
                if let Some(pkt) = q.pop_front() {
                    self.chans.send(ep.ingress, Flit { pkt, ready_at: 0 }, now);
                }
            }
        }
        // Phase 3: valid — due heads move to consumers with credits.
        if self.chans.deliver_due(now) {
            let total = self.chans.stalls_total();
            self.ledger.tracer.emit(|| {
                TraceEvent::counter(
                    TraceCategory::Noc,
                    "noc::handshake_stall",
                    now,
                    0,
                    total as f64,
                )
            });
        }
        // Phase 4: step every router.
        for r in &mut self.routers {
            r.step(now, &mut self.chans, &mut self.ledger.stats);
        }
        // Phase 5: egress.
        let mut deliveries = Vec::new();
        for ep in &self.endpoints {
            if let Some(flit) = self.chans.take(ep.egress) {
                self.ledger.deliver(flit.pkt, &mut deliveries);
            }
        }
        // Defensive: a mis-behaved router must not lose packets.
        self.chans.requeue_undelivered(now);
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
        self.src_queues.iter().map(VecDeque::len).sum::<usize>()
            + self.chans.pending()
            + self.routers.iter().map(RouterNode::buffered).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::super::router::{RouterTiming, DIM_LOCAL};
    use super::*;

    fn router(id: usize, ins: Vec<ChannelId>, outs: Vec<ChannelId>) -> RouterNode {
        let timing = RouterTiming {
            link_bits_per_cycle: 256,
            router_delay: 1,
            input_queue_pkts: 4,
        };
        let (in_dim, out_dim) = (vec![DIM_LOCAL; ins.len()], vec![DIM_LOCAL; outs.len()]);
        RouterNode::new(id, timing, ins, outs, in_dim, out_dim, |_| 0)
    }

    /// Builder rejects a channel nobody consumes, and one driven twice.
    #[test]
    fn builder_rejects_miswired_graphs() {
        // Well-wired: one router between one endpoint's ingress and egress.
        let mut b = FabricBuilder::new();
        let ingress = b.channel(1, 2);
        let egress = b.channel(1, 2);
        b.add(router(0, vec![ingress], vec![egress]));
        assert!(b.build(vec![Endpoint { ingress, egress }]).is_ok());

        // Dangling channel: no consumer.
        let mut b = FabricBuilder::new();
        let ingress = b.channel(1, 2);
        let dangling = b.channel(1, 2);
        let egress = b.channel(1, 2);
        b.add(router(0, vec![ingress], vec![egress, dangling]));
        assert!(b.build(vec![Endpoint { ingress, egress }]).is_err());

        // Double producer on one channel.
        let mut b = FabricBuilder::new();
        let i1 = b.channel(1, 2);
        let i2 = b.channel(1, 2);
        let shared = b.channel(1, 2);
        let egress = b.channel(1, 2);
        b.add(router(0, vec![i1], vec![shared]));
        b.add(router(1, vec![i2], vec![shared]));
        b.add(router(2, vec![shared], vec![egress]));
        let endpoints = vec![
            Endpoint {
                ingress: i1,
                egress,
            },
            Endpoint {
                ingress: i2,
                egress,
            },
        ];
        assert!(b.build(endpoints).is_err());
    }
}
