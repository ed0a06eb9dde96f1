//! # flumen-sim — shared simulation primitives
//!
//! The pieces the simulated subsystems share. The cycle loop itself
//! belongs to the full-system engine (`flumen_system::SystemSim::run_to`),
//! which jumps the quiet spans its network and server report:
//!
//! * [`EventQueue`] — deterministic `(deadline, FIFO)` scheduled wakeups
//!   for DRAM returns, phase-programming completions, and reconfiguration
//!   guard times. Time is unit-checked [`flumen_units::Cycles`].
//! * [`SimRng`] — the seeded, snapshotable random stream.
//! * [`Snapshotable`] + [`Snapshot`] — versioned canonical-JSON
//!   checkpoints that resume bit-identically mid-run, extending the
//!   sweep's content-addressed result cache to in-progress jobs.
//!
//! The [`json`] module (canonical serialization, previously private to
//! `flumen-sweep`) lives here so snapshots and job hashes share one
//! canonical byte form.

#![warn(missing_docs)]

pub mod event;
pub mod json;
pub mod rng;
pub mod snapshot;

pub use event::EventQueue;
/// Re-exported so consumers can name simulation time without a
/// separate `flumen-units` dependency.
pub use flumen_units::Cycles;
pub use json::{FromJson, Json, JsonError, ToJson};
pub use rng::SimRng;
pub use snapshot::{Snapshot, Snapshotable, SNAPSHOT_VERSION};
