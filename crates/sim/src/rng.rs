//! The simulator's deterministic random stream.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// A seeded random source: one stream per run, so a run replays
/// bit-identically from its seed. Wraps the vendored xoshiro256++
/// [`StdRng`].
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
}

impl RngCore for SimRng {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
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
    fn rng_trait_methods_available() {
        let mut rng = SimRng::seed_from_u64(3);
        let x: f64 = rng.gen_range(0.0..1.0);
        assert!((0.0..1.0).contains(&x));
        let i = rng.gen_range(0..10usize);
        assert!(i < 10);
    }
}
