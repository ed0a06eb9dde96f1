//! # flumen-sim — shared simulation primitives
//!
//! The pieces the simulated subsystems share. The cycle loop itself
//! belongs to the full-system engine (`flumen_system::SystemSim::run_to`),
//! which jumps the quiet spans its network and server report:
//!
//! * [`EventQueue`] — deterministic `(deadline, FIFO)` scheduled wakeups
//!   for DRAM returns, phase-programming completions, and reconfiguration
//!   guard times. Time is unit-checked [`flumen_units::Cycles`].
//! * [`SimRng`] — the seeded random stream.
//!
//! The [`json`] module holds the canonical serialization that job hashes,
//! sweep cache entries and results are written in.

#![warn(missing_docs)]

pub mod event;
pub mod json;
pub mod rng;

pub use event::EventQueue;
/// Re-exported so consumers can name simulation time without a
/// separate `flumen-units` dependency.
pub use flumen_units::Cycles;
pub use json::{FromJson, Json, JsonError, ToJson};
pub use rng::SimRng;
