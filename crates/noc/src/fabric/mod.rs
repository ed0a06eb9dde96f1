//! The composed router fabric behind the 2-D torus.
//!
//! A composed fabric is a graph of input-queued `RouterNode`s joined by
//! credit channels (`Channels`). The torus ([`torus`]) declares its
//! channel grid, one router per node with a routing closure, and one
//! endpoint per node; `FabricBuilder` checks that every channel has
//! exactly one producer and one consumer and returns a
//! [`ComposedFabric`] that implements the crate's
//! [`Network`](crate::Network) trait — comparable, traceable, and
//! covered by the same flit-conservation proptests as the hand-written
//! fabrics.
//!
//! # Handshake semantics
//!
//! Each cycle runs in fixed phases so that results never depend on router
//! iteration order:
//!
//! 1. **ready** — every router publishes *credits* (free input-buffer
//!    slots) on its input channels, computed from pre-cycle state.
//! 2. **ingress** — endpoint source queues offer at most one packet each.
//! 3. **valid** — every channel whose head item is due (`available_at ≤
//!    now`) moves it into a single delivered slot *iff* the consumer
//!    published a credit; otherwise a `noc::handshake_stall` is counted.
//! 4. **step** — every router consumes its delivered inputs and emits into
//!    its output channels. Sends become visible no earlier than the next
//!    cycle (channel latency ≥ 1), so intra-phase order cannot leak.
//! 5. **egress** — packets on endpoint egress channels become deliveries.
//!
//! Credits subtract items already in flight on the channel
//! (`Channels::effective_credits`), so a router's send decision is a
//! pure function of last cycle's state — the determinism contract that
//! makes a composed fabric's state a pure function of its inputs, cycle
//! by cycle.
//!
//! The buffering primitives `Fifo`, `RrToken` and `FlightBuffer` live
//! here too; the hand-written bus, crossbar and routed networks
//! share them. So does every network's `Ledger`: the clock, the
//! statistics and the `pkt` trace span, opened on injection and closed
//! once per destination on delivery.

mod arbiter;
mod channel;
mod fifo;
mod flight;
mod graph;
mod ledger;
mod router;
mod torus;

pub(crate) use arbiter::RrToken;
pub(crate) use fifo::Fifo;
pub(crate) use flight::FlightBuffer;
pub use graph::ComposedFabric;
pub(crate) use ledger::Ledger;
pub(crate) use router::Flit;
pub use torus::{torus, torus_4x4};
