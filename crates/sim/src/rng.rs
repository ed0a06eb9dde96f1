//! The simulator's deterministic random stream.

use crate::json::{FromJson, Json, JsonError, ToJson};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// A seeded, snapshotable random source: one stream per run, so a run
/// replays bit-identically from its seed.
///
/// Wraps the vendored xoshiro256++ [`StdRng`] and exposes its raw state,
/// which is what makes mid-run checkpoints exact: restoring the four state
/// words resumes the stream at the precise draw where the snapshot was
/// taken, with no replay burn-in.
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: StdRng,
}

impl SimRng {
    /// A stream seeded identically to `StdRng::seed_from_u64` — existing
    /// harness seeds (e.g. `RunConfig::seed`) reproduce their exact
    /// pre-kernel sequences.
    pub fn seed_from_u64(seed: u64) -> Self {
        SimRng {
            inner: StdRng::seed_from_u64(seed),
        }
    }

    /// The raw generator state.
    pub fn state(&self) -> [u64; 4] {
        self.inner.state()
    }

    /// Resumes a stream from a [`SimRng::state`] snapshot.
    pub fn from_state(s: [u64; 4]) -> Self {
        SimRng {
            inner: StdRng::from_state(s),
        }
    }
}

impl RngCore for SimRng {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }
}

// State words use the full 64-bit range, which `Json::Num`'s f64 cannot
// hold exactly past 2^53 — so they serialize as fixed-width hex strings.
impl ToJson for SimRng {
    fn to_json(&self) -> Json {
        Json::Arr(
            self.state()
                .iter()
                .map(|w| crate::json::u64_hex(*w))
                .collect(),
        )
    }
}

impl FromJson for SimRng {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        let arr = j.as_arr()?;
        let [a, b, c, d] = arr else {
            return Err(JsonError(format!(
                "SimRng state: expected 4 words, got {}",
                arr.len()
            )));
        };
        use crate::json::u64_from_hex;
        Ok(SimRng::from_state([
            u64_from_hex(a)?,
            u64_from_hex(b)?,
            u64_from_hex(c)?,
            u64_from_hex(d)?,
        ]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn matches_std_rng_sequence() {
        let mut a = SimRng::seed_from_u64(0xF1);
        let mut b = StdRng::seed_from_u64(0xF1);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn snapshot_resumes_mid_stream() {
        let mut rng = SimRng::seed_from_u64(7);
        for _ in 0..13 {
            rng.next_u64();
        }
        let snap = rng.to_json();
        let tail: Vec<u64> = (0..50).map(|_| rng.next_u64()).collect();
        let mut resumed = SimRng::from_json(&snap).unwrap();
        let resumed_tail: Vec<u64> = (0..50).map(|_| resumed.next_u64()).collect();
        assert_eq!(tail, resumed_tail);
    }

    #[test]
    fn rng_trait_methods_available() {
        let mut rng = SimRng::seed_from_u64(3);
        let x: f64 = rng.gen_range(0.0..1.0);
        assert!((0.0..1.0).contains(&x));
        let i = rng.gen_range(0..10usize);
        assert!(i < 10);
    }
}
