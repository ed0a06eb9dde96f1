//! Power-of-two-bucket histograms, in the same reservoir style as
//! `flumen-noc`'s `NetStats` latency histogram.

/// The power-of-two bucket index for a value: bucket `i` covers
/// `[2^i, 2^{i+1})`, with bucket 0 also holding the values 0 and 1.
pub fn pow2_bucket(v: u64, buckets: usize) -> usize {
    (64 - v.max(1).leading_zeros() as usize - 1).min(buckets - 1)
}

/// Interpolated quantile over a power-of-two bucket histogram.
///
/// `count` is the total number of recorded values, `max` the largest one
/// (used to cap the top bucket's upper edge, so `q = 1.0` returns the
/// true maximum). Within the quantile's bucket the value is linearly
/// interpolated between the bucket edges. Returns `None` when the
/// histogram is empty.
///
/// # Panics
///
/// Panics unless `q ∈ [0, 1]`.
pub fn pow2_percentile(buckets: &[u64], count: u64, max: u64, q: f64) -> Option<u64> {
    assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
    if count == 0 {
        return None;
    }
    // Exact endpoints: q = 0 is the lower edge of the fastest occupied
    // bucket, q = 1 the true maximum.
    if q == 0.0 {
        let i = buckets.iter().position(|&c| c > 0)?;
        return Some(if i == 0 { 0 } else { 1u64 << i });
    }
    if q == 1.0 {
        return Some(max);
    }
    let target = ((count as f64 * q).ceil() as u64).max(1);
    let mut seen = 0u64;
    for (i, &c) in buckets.iter().enumerate() {
        if c == 0 {
            continue;
        }
        if seen + c >= target {
            let lo = if i == 0 { 0 } else { 1u64 << i };
            let hi = (1u64 << (i + 1)).min(max.max(lo));
            let frac = (target - seen) as f64 / c as f64;
            return Some(lo + (frac * (hi - lo) as f64).round() as u64);
        }
        seen += c;
    }
    Some(max)
}

/// A power-of-two bucket histogram with count/sum/min/max.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Values recorded.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Smallest recorded value (`u64::MAX` when empty).
    pub min: u64,
    /// Largest recorded value.
    pub max: u64,
    /// Bucket counts; bucket `i` covers `[2^i, 2^{i+1})`.
    pub buckets: [u64; 32],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; 32],
        }
    }
}

impl Histogram {
    /// Records one value.
    pub fn record(&mut self, v: u64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.buckets[pow2_bucket(v, 32)] += 1;
    }

    /// Mean of recorded values (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum as f64 / self.count as f64)
        }
    }

    /// Interpolated quantile (see [`pow2_percentile`]).
    ///
    /// # Panics
    ///
    /// Panics unless `q ∈ [0, 1]`.
    pub fn percentile(&self, q: f64) -> Option<u64> {
        pow2_percentile(&self.buckets, self.count, self.max, q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges() {
        assert_eq!(pow2_bucket(0, 24), 0);
        assert_eq!(pow2_bucket(1, 24), 0);
        assert_eq!(pow2_bucket(2, 24), 1);
        assert_eq!(pow2_bucket(3, 24), 1);
        assert_eq!(pow2_bucket(4, 24), 2);
        assert_eq!(pow2_bucket(u64::MAX, 24), 23);
    }

    #[test]
    fn percentile_interpolates_within_bucket() {
        // 100 values spread over bucket [16, 32).
        let mut h = Histogram::default();
        for _ in 0..100 {
            h.record(20);
        }
        let p50 = h.percentile(0.5).unwrap();
        assert!((16..=24).contains(&p50), "p50 {p50}");
        // q = 0 → the minimum's bucket lower edge; q = 1 → the true max.
        assert_eq!(h.percentile(0.0), Some(16));
        assert_eq!(h.percentile(1.0), Some(20));
    }

    #[test]
    fn percentile_empty_and_bounds() {
        let h = Histogram::default();
        assert_eq!(h.percentile(0.5), None);
        assert_eq!(h.mean(), None);
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn percentile_rejects_out_of_range() {
        let mut h = Histogram::default();
        h.record(1);
        let _ = h.percentile(1.5);
    }

    #[test]
    fn histogram_summary_stats() {
        let mut h = Histogram::default();
        for v in [2u64, 4, 6] {
            h.record(v);
        }
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 12);
        assert_eq!(h.min, 2);
        assert_eq!(h.max, 6);
        assert_eq!(h.mean(), Some(4.0));
    }
}
