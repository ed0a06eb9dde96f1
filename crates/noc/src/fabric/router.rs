//! The input-queued router node a composed fabric is built from.

use super::arbiter::RrToken;
use super::channel::{ChannelId, Channels};
use super::fifo::Fifo;
use crate::packet::Packet;
use crate::stats::NetStats;
use flumen_sim::{FromJson, Json, JsonError, ToJson};
use std::fmt;

/// Dimension class of a local (injection/ejection) port: never equal to a
/// ring dimension, so traffic entering the network always pays the
/// stricter bubble-rule spare.
pub(crate) const DIM_LOCAL: usize = usize::MAX;

/// A packet held by a router: the packet plus the cycle at which it
/// becomes eligible for switching at its current router (models the
/// router pipeline delay). Both the composed fabric and
/// [`RoutedNetwork`](crate::RoutedNetwork) queue these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Flit {
    /// The packet in transit.
    pub(crate) pkt: Packet,
    /// Earliest cycle the current router may switch it.
    pub(crate) ready_at: u64,
}

flumen_sim::json_struct!(Flit { pkt, ready_at });

/// Timing knobs shared by every [`RouterNode`] in a fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RouterTiming {
    /// Link bandwidth, bits per core cycle.
    pub(crate) link_bits_per_cycle: u32,
    /// Router pipeline delay per hop, cycles.
    pub(crate) router_delay: u64,
    /// Input buffer capacity per port, packets.
    pub(crate) input_queue_pkts: usize,
}

/// An input-queued router with round-robin port arbitration, per-hop
/// serialization, and bubble flow control.
///
/// Geometry is declarative: the in/out port channel lists, a dimension
/// class per port (for the bubble rule — a flit crossing dimensions or
/// entering from the local port must leave **two** free slots downstream,
/// continuing traffic one), and a routing closure `dst → out-port index`.
/// The last in port is injection, the last out port ejection.
///
/// The composed fabric steps its routers in two calls per cycle:
/// [`RouterNode::publish_ready`] must be a pure function of the router's
/// pre-cycle state (it runs for every router before any step), and
/// [`RouterNode::step`] consumes at most the deliveries its own published
/// credits earned. Under those two rules router order is unobservable.
pub(crate) struct RouterNode {
    pub(super) id: usize,
    timing: RouterTiming,
    pub(super) in_ports: Vec<ChannelId>,
    pub(super) out_ports: Vec<ChannelId>,
    in_dim: Vec<usize>,
    out_dim: Vec<usize>,
    route: Box<dyn Fn(usize) -> usize>,
    inputs: Vec<Fifo<Flit>>,
    out_busy_until: Vec<u64>,
    rr: RrToken,
}

impl fmt::Debug for RouterNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RouterNode")
            .field("id", &self.id)
            .field("inputs", &self.inputs)
            .field("out_busy_until", &self.out_busy_until)
            .field("rr", &self.rr)
            .finish_non_exhaustive()
    }
}

impl RouterNode {
    /// Builds a router. `in_ports`/`in_dim` and `out_ports`/`out_dim`
    /// must be the same length; the routing closure must return a valid
    /// out-port index for every destination (the ejection port for this
    /// router's own id).
    pub(crate) fn new(
        id: usize,
        timing: RouterTiming,
        in_ports: Vec<ChannelId>,
        out_ports: Vec<ChannelId>,
        in_dim: Vec<usize>,
        out_dim: Vec<usize>,
        route: impl Fn(usize) -> usize + 'static,
    ) -> Self {
        debug_assert_eq!(in_ports.len(), in_dim.len());
        debug_assert_eq!(out_ports.len(), out_dim.len());
        let inputs = in_ports
            .iter()
            .map(|_| Fifo::bounded(timing.input_queue_pkts.max(1)))
            .collect();
        let out_busy_until = vec![0; out_ports.len()];
        RouterNode {
            id,
            timing,
            in_ports,
            out_ports,
            in_dim,
            out_dim,
            route: Box::new(route),
            inputs,
            out_busy_until,
            rr: RrToken::new(),
        }
    }

    /// Phase 1: publishes each input queue's free slots as credits.
    pub(super) fn publish_ready(&self, chans: &mut Channels<Flit>) {
        for (buf, &c) in self.inputs.iter().zip(&self.in_ports) {
            chans.publish_credits(c, buf.free_slots());
        }
    }

    /// Phase 4: absorbs delivered flits, switches at most one flit per
    /// input port, and accounts link occupancy into `stats`.
    pub(super) fn step(&mut self, now: u64, chans: &mut Channels<Flit>, stats: &mut NetStats) {
        // Absorb arrivals: space is guaranteed by the credits published
        // last phase-1; the router pipeline delay starts on arrival.
        for (buf, &c) in self.inputs.iter_mut().zip(&self.in_ports) {
            if let Some(mut flit) = chans.take(c) {
                flit.ready_at = now + self.timing.router_delay;
                let _accepted = buf.push_back(flit);
                debug_assert!(_accepted, "router accepted beyond its published credits");
            }
        }
        // Switch at most one flit per input port, round-robin over ports.
        let nports = self.in_ports.len();
        let eject = self.out_ports.len().saturating_sub(1);
        for i in self.rr.scan(nports) {
            let Some(head) = self.inputs.get(i).and_then(Fifo::front) else {
                continue;
            };
            if head.ready_at > now {
                continue;
            }
            let out = (self.route)(head.pkt.dst).min(eject);
            let Some(&out_ch) = self.out_ports.get(out) else {
                continue;
            };
            if self.out_busy_until.get(out).is_some_and(|&b| b > now) {
                continue;
            }
            if out == eject {
                // Ejection: one per cycle through the local out port; the
                // egress channel is always ready.
                if !chans.can_send(out_ch) {
                    continue;
                }
                let Some(flit) = self.inputs.get_mut(i).and_then(Fifo::pop_front) else {
                    continue;
                };
                self.out_busy_until[out] = now + 1;
                chans.send(out_ch, flit, now);
                continue;
            }
            // Bubble flow control: flits entering this dimension ring
            // (injection or a turn) must leave two free slots downstream,
            // continuing traffic one. Combined with dimension-order
            // routing this keeps a bubble in every ring — no deadlock.
            let crossing = self.in_dim.get(i) != self.out_dim.get(out);
            let spare = if crossing { 2 } else { 1 };
            if chans.effective_credits(out_ch) < spare || !chans.can_send(out_ch) {
                continue;
            }
            let Some(mut flit) = self.inputs.get_mut(i).and_then(Fifo::pop_front) else {
                continue;
            };
            let ser = flit.pkt.ser_cycles(self.timing.link_bits_per_cycle);
            self.out_busy_until[out] = now + ser;
            if let Some(busy) = stats.link_busy.get_mut(out_ch.index()) {
                *busy += ser;
            }
            stats.bit_hops += flit.pkt.bits as u64;
            flit.ready_at = 0;
            chans.send_after(out_ch, flit, now, ser);
        }
        self.rr.rotate(nports);
    }

    /// Flits buffered in the input queues.
    pub(super) fn buffered(&self) -> usize {
        self.inputs.iter().map(Fifo::len).sum()
    }

    /// The router's evolving state as canonical JSON (checkpoints).
    pub(super) fn state_json(&self) -> Json {
        Json::obj([
            ("inputs", self.inputs.to_json()),
            ("out_busy_until", self.out_busy_until.to_json()),
            ("rr", self.rr.to_json()),
        ])
    }

    /// Restores state written by [`RouterNode::state_json`], rejecting a
    /// snapshot whose port count differs from this router's.
    pub(super) fn restore_state(&mut self, j: &Json) -> Result<(), JsonError> {
        let inputs = j.get("inputs")?;
        let arr = inputs.as_arr()?;
        if arr.len() != self.inputs.len() {
            return Err(JsonError(format!(
                "RouterNode {}: snapshot has {} input queues, node has {}",
                self.id,
                arr.len(),
                self.inputs.len()
            )));
        }
        for (buf, bj) in self.inputs.iter_mut().zip(arr) {
            buf.restore_items(bj)?;
        }
        let out_busy_until: Vec<u64> = Vec::from_json(j.get("out_busy_until")?)?;
        if out_busy_until.len() != self.out_ports.len() {
            return Err(JsonError(format!(
                "RouterNode {}: snapshot has {} output ports, node has {}",
                self.id,
                out_busy_until.len(),
                self.out_ports.len()
            )));
        }
        self.out_busy_until = out_busy_until;
        self.rr = RrToken::from_json(j.get("rr")?)?;
        Ok(())
    }
}
