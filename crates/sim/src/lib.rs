//! # flumen-sim — the discrete-event simulation kernel
//!
//! The full-system engine's cycle loop runs on this crate; the MZIM
//! control unit's partition timing uses its event queue, and the NoC
//! harness its random stream:
//!
//! * [`Component`] + [`run_until`] — the typed step interface and the one
//!   loop that drives it to quiescence or a cycle cap, jumping over the
//!   idle spans a component reports. Time is unit-checked
//!   [`flumen_units::Cycles`].
//! * [`EventQueue`] — deterministic `(deadline, FIFO)` scheduled wakeups
//!   for DRAM returns, phase-programming completions, and reconfiguration
//!   guard times.
//! * [`SimRng`] — the seeded, snapshotable random stream.
//! * [`Snapshotable`] + [`Snapshot`] — versioned canonical-JSON
//!   checkpoints that resume bit-identically mid-run, extending the
//!   sweep's content-addressed result cache to in-progress jobs.
//!
//! The [`json`] module (canonical serialization, previously private to
//! `flumen-sweep`) lives here so snapshots and job hashes share one
//! canonical byte form.

#![warn(missing_docs)]

pub mod component;
pub mod event;
pub mod json;
pub mod kernel;
pub mod rng;
pub mod snapshot;

pub use component::Component;
pub use event::EventQueue;
/// Re-exported so kernel consumers can name simulation time without a
/// separate `flumen-units` dependency.
pub use flumen_units::Cycles;
pub use json::{FromJson, Json, JsonError, ToJson};
pub use kernel::{run_until, RunOutcome};
pub use rng::SimRng;
pub use snapshot::{Snapshot, Snapshotable, SNAPSHOT_VERSION};
