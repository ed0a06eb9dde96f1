//! Versioned snapshot envelopes for checkpoint/resume.
//!
//! A snapshot captures only *dynamic* state. Configuration is not
//! serialized: restore happens onto a freshly constructed,
//! identically-configured instance (sweeps rebuild that instance
//! deterministically from the job spec), so the envelope carries a caller
//! `key` — typically the job's content hash, which already commits to the
//! full configuration — to reject snapshots taken under different configs.

use crate::json::{Json, JsonError, ToJson};
use flumen_units::Cycles;

/// Bump whenever any [`Snapshotable`] impl changes its serialized layout.
/// Stale checkpoints are discarded (the run restarts from cycle zero),
/// never misinterpreted.
pub const SNAPSHOT_VERSION: u64 = 3;

/// State that can round-trip through canonical JSON bit-identically.
///
/// Contract: `b.restore(&a.snapshot())` on a freshly constructed `b` with
/// `a`'s configuration must make every subsequent step of `b` produce
/// bit-identical observable state to `a` — f64 stats compare with
/// [`f64::to_bits`], not tolerances. The snapshot/resume proptests enforce
/// this end-to-end.
pub trait Snapshotable {
    /// Serializes all dynamic state.
    fn snapshot(&self) -> Json;

    /// Restores dynamic state captured by [`Snapshotable::snapshot`] onto
    /// an identically-configured instance.
    fn restore(&mut self, j: &Json) -> Result<(), JsonError>;
}

/// The on-disk checkpoint envelope: version + config key + clock + state.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// The simulation time the state was captured at.
    pub cycle: Cycles,
    /// Caller-chosen configuration fingerprint (job content hash).
    pub key: String,
    /// The component's [`Snapshotable::snapshot`] payload.
    pub state: Json,
}

impl Snapshot {
    /// Wraps component state in a versioned envelope.
    pub fn new(key: impl Into<String>, cycle: Cycles, state: Json) -> Self {
        Snapshot {
            cycle,
            key: key.into(),
            state,
        }
    }

    /// The envelope's serialized form.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("cycle", self.cycle.value().to_json()),
            ("key", self.key.to_json()),
            ("state", self.state.clone()),
            ("version", SNAPSHOT_VERSION.to_json()),
        ])
    }

    /// Parses and validates an envelope. Fails on a version or key
    /// mismatch — a stale or foreign checkpoint must not restore.
    pub fn from_json(j: &Json, expect_key: &str) -> Result<Self, JsonError> {
        let version = j.get("version")?.as_u64()?;
        if version != SNAPSHOT_VERSION {
            return Err(JsonError(format!(
                "snapshot version {version} != supported {SNAPSHOT_VERSION}"
            )));
        }
        let key = j.get("key")?.as_str()?.to_string();
        if key != expect_key {
            return Err(JsonError(format!(
                "snapshot key {key:?} does not match expected {expect_key:?}"
            )));
        }
        Ok(Snapshot {
            cycle: Cycles::new(j.get("cycle")?.as_u64()?),
            key,
            state: j.get("state")?.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_round_trips() {
        let snap = Snapshot::new(
            "abc123",
            Cycles::new(4096),
            Json::obj([("x", 7u64.to_json())]),
        );
        let j = snap.to_json();
        let back = Snapshot::from_json(&j, "abc123").unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn rejects_wrong_key_and_version() {
        let snap = Snapshot::new("abc123", Cycles::new(1), Json::Null);
        let j = snap.to_json();
        assert!(Snapshot::from_json(&j, "other").is_err());
        let mut tampered = j.clone();
        if let Json::Obj(m) = &mut tampered {
            m.insert("version".into(), Json::Num(999.0));
        }
        assert!(Snapshot::from_json(&tampered, "abc123").is_err());
    }
}
