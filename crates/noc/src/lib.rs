//! # flumen-noc
//!
//! A cycle-level network-on-package simulator standing in for Booksim in
//! the Flumen reproduction. Four topologies are modelled (paper Fig. 10):
//!
//! * [`RoutedNetwork`] — electrical **ring** and **mesh** with input-queued
//!   routers, XY / shortest-direction routing, bubble flow control and
//!   finite buffers.
//! * [`OpticalBus`] — shared circular waveguides with token arbitration
//!   (Corona-style), native optical multicast.
//! * [`MzimCrossbar`] — the Flumen fabric as a non-blocking crossbar with a
//!   wavefront arbiter, per-connection reconfiguration cost, physical
//!   multicast, and wire reservation for compute partitions.
//!
//! A fifth network, the 2-D [`torus`], is not hand-written: [`fabric`]
//! composes it from input-queued routers joined by credit channels.
//!
//! The [`harness`] module measures latency-vs-load points (paper Fig. 11)
//! on any [`Network`].
//!
//! # Example
//!
//! ```
//! use flumen_noc::harness::{measure_point, RunConfig};
//! use flumen_noc::traffic::TrafficPattern;
//! use flumen_noc::MzimCrossbar;
//!
//! let cfg = RunConfig { warmup: 200, measure: 1_000, ..RunConfig::default() };
//! let mut net = MzimCrossbar::flumen_16();
//! let pt = measure_point(&mut net, TrafficPattern::UniformRandom, 0.1, &cfg);
//! assert!(!pt.saturated);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod bus;
mod crossbar;
mod error;
pub mod fabric;
pub mod harness;
mod packet;
mod routed;
mod stats;
pub mod traffic;
mod wavefront;
#[cfg(test)]
mod zero_load;

pub use bus::{BusConfig, OpticalBus};
pub use crossbar::{CrossbarConfig, MzimCrossbar};
pub use error::{NocError, Result};
pub use fabric::{torus, ComposedFabric};
pub use packet::{Delivery, Packet};
pub use routed::{RoutedConfig, RoutedNetwork, RoutedTopology};
pub use stats::NetStats;
pub use wavefront::{Grants, WavefrontArbiter};

/// A cycle-steppable network.
///
/// Every network in this crate implements this; the system simulator drives them
/// interchangeably.
pub trait Network {
    /// Installs a trace sink. Every topology emits per-packet `pkt` async
    /// spans (inject → one end per destination) through it; the disabled
    /// default handle makes instrumentation free. The default method
    /// ignores the handle so minimal implementations stay valid.
    fn set_tracer(&mut self, _tracer: flumen_trace::TraceHandle) {}
    /// Endpoint count.
    fn num_nodes(&self) -> usize;
    /// Queues a packet at its source (open-loop: the source queue is
    /// unbounded and latency is measured from `Packet::created_at`).
    fn inject(&mut self, pkt: Packet);
    /// Advances one cycle; returns packets delivered during it.
    fn step(&mut self) -> Vec<Delivery>;
    /// Current cycle.
    fn cycle(&self) -> u64;
    /// Statistics accumulated so far.
    fn stats(&self) -> &NetStats;
    /// Mutable statistics (for warmup resets).
    fn stats_mut(&mut self) -> &mut NetStats;
    /// Packets somewhere in the network (source queues + in flight).
    fn pending(&self) -> usize;
    /// The cycle `t > cycle()` up to which every [`Network::step`] from
    /// now on, with no [`Network::inject`] between, would deliver nothing
    /// and change only what [`Network::advance_quiet`] reproduces;
    /// `u64::MAX` when that holds until the next injection. `None` means
    /// "step this cycle". The default is quiet only when drained.
    fn quiet_until(&self) -> Option<u64> {
        (self.pending() == 0).then_some(u64::MAX)
    }
    /// Advances `cycles` cycles inside a span reported by
    /// [`Network::quiet_until`], leaving the network exactly as that many
    /// [`Network::step`] calls would. The default makes those calls; a
    /// network whose quiet step only turns counters overrides it with the
    /// closed form.
    fn advance_quiet(&mut self, cycles: u64) {
        for _ in 0..cycles {
            let delivered = self.step();
            debug_assert!(delivered.is_empty(), "a quiet network delivered");
        }
    }
}
