//! Canonical snapshots of live simulation state: the test oracle for
//! quiet-span jumps.
//!
//! A snapshot captures only *dynamic* state; configuration is fixed at
//! construction and not serialized. Two instances built from the same
//! configuration are in the same state exactly when their snapshots'
//! canonical bytes are equal. The quiet-span differential tests
//! (`flumen/tests/idle_skip.rs`, `flumen-noc/tests/advance_idle.rs`) use
//! that to prove a jump over a quiet span ends where stepping every
//! cycle does.

use crate::json::Json;

/// State that serializes to canonical JSON.
///
/// Contract: equal dynamic state gives equal
/// [`Json::to_canonical`] bytes, and any difference a later step could
/// observe gives different bytes — f64 stats are written in their
/// shortest round-trip form, so they compare bit for bit.
pub trait Snapshotable {
    /// Serializes all dynamic state.
    fn snapshot(&self) -> Json;
}
