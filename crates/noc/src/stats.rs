//! Network statistics: latency, throughput, per-link utilization, and the
//! raw activity counts the energy model consumes.

/// Aggregated statistics for one simulation run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Packets handed to the network.
    pub injected: u64,
    /// Packet deliveries (a multicast counts once per destination).
    pub delivered: u64,
    /// Sum of end-to-end latencies (cycles) over deliveries.
    pub latency_sum: u64,
    /// Maximum delivery latency seen.
    pub latency_max: u64,
    /// Latency histogram in power-of-two buckets: bucket `i` counts
    /// deliveries with latency in `[2^i, 2^{i+1})` (bucket 0 holds 0–1).
    /// Cheap enough to keep always-on and sufficient for p50/p99.
    pub latency_hist: [u64; 24],
    /// Total bits injected.
    pub bits_injected: u64,
    /// Total bit·hops moved across links (electrical energy ∝ this).
    pub bit_hops: u64,
    /// Per-link busy cycles, indexed by link id (meaning is
    /// topology-specific; endpoint links for the photonic fabrics).
    pub link_busy: Vec<u64>,
    /// Fabric reconfigurations performed (MZIM only).
    pub reconfigurations: u64,
    /// Cycles simulated.
    pub cycles: u64,
}

impl NetStats {
    /// Creates zeroed statistics with `links` utilization counters.
    pub fn new(links: usize) -> Self {
        NetStats {
            link_busy: vec![0; links],
            ..NetStats::default()
        }
    }

    /// Records one delivery latency into the aggregate counters.
    pub fn record_latency(&mut self, lat: u64) {
        self.delivered += 1;
        self.latency_sum += lat;
        self.latency_max = self.latency_max.max(lat);
        let bucket = (64 - lat.max(1).leading_zeros() as usize - 1).min(23);
        self.latency_hist[bucket] += 1;
    }

    /// Approximate latency percentile, linearly interpolated within the
    /// histogram bucket containing the quantile. `q = 0.0` returns the
    /// lower edge of the fastest occupied bucket, `q = 1.0` the true
    /// maximum latency. `None` before any delivery.
    ///
    /// # Panics
    ///
    /// Panics unless `q ∈ [0, 1]`.
    pub fn latency_percentile(&self, q: f64) -> Option<u64> {
        flumen_trace::pow2_percentile(&self.latency_hist, self.delivered, self.latency_max, q)
    }

    /// Mean end-to-end latency in cycles (`None` before any delivery).
    pub fn avg_latency(&self) -> Option<f64> {
        if self.delivered == 0 {
            None
        } else {
            Some(self.latency_sum as f64 / self.delivered as f64)
        }
    }

    /// Mean link utilization over the run, in `[0, 1]`.
    pub fn avg_link_utilization(&self) -> f64 {
        if self.cycles == 0 || self.link_busy.is_empty() {
            return 0.0;
        }
        let busy: u64 = self.link_busy.iter().sum();
        // flumen-check: allow(no-bare-cast) — dimensionless busy/total ratio, not a time
        busy as f64 / (self.cycles as f64 * self.link_busy.len() as f64)
    }

    /// Per-link utilizations in `[0, 1]`.
    pub fn link_utilizations(&self) -> Vec<f64> {
        if self.cycles == 0 {
            return vec![0.0; self.link_busy.len()];
        }
        self.link_busy
            .iter()
            // flumen-check: allow(no-bare-cast) — dimensionless busy/total ratio, not a time
            .map(|&b| b as f64 / self.cycles as f64)
            .collect()
    }

    /// Delivered throughput in packets per node per cycle.
    pub fn throughput(&self, nodes: usize) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        // flumen-check: allow(no-bare-cast) — packets per node-cycle rate, not a time
        self.delivered as f64 / (self.cycles as f64 * nodes as f64)
    }

    /// Clears counters while keeping the link vector size (used at the end
    /// of warmup so measurements exclude transient state).
    pub fn reset(&mut self) {
        let links = self.link_busy.len();
        *self = NetStats::new(links);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn avg_latency_none_when_empty() {
        assert_eq!(NetStats::new(4).avg_latency(), None);
    }

    #[test]
    fn avg_latency_mean() {
        let mut s = NetStats::new(0);
        s.delivered = 4;
        s.latency_sum = 100;
        assert_eq!(s.avg_latency(), Some(25.0));
    }

    #[test]
    fn record_latency_updates_everything() {
        let mut s = NetStats::new(0);
        s.record_latency(5);
        s.record_latency(100);
        assert_eq!(s.delivered, 2);
        assert_eq!(s.latency_sum, 105);
        assert_eq!(s.latency_max, 100);
        assert_eq!(s.avg_latency(), Some(52.5));
    }

    #[test]
    fn percentiles_from_histogram() {
        let mut s = NetStats::new(0);
        // 99 fast deliveries (~4 cycles), one slow (~1000).
        for _ in 0..99 {
            s.record_latency(4);
        }
        s.record_latency(1000);
        let p50 = s.latency_percentile(0.5).unwrap();
        let p99 = s.latency_percentile(0.99).unwrap();
        let p100 = s.latency_percentile(1.0).unwrap();
        assert!(p50 <= 8, "p50 bucket {p50}");
        assert!(p99 <= 8, "p99 still in the fast bucket: {p99}");
        assert_eq!(p100, 1000, "q=1 returns the true maximum");
        assert_eq!(NetStats::new(0).latency_percentile(0.5), None);
    }

    #[test]
    fn percentile_accepts_interval_endpoints() {
        let mut s = NetStats::new(0);
        for lat in [4u64, 5, 6, 7] {
            s.record_latency(lat);
        }
        // q=0 is the lower edge of the fastest occupied bucket ([4, 8)).
        assert_eq!(s.latency_percentile(0.0), Some(4));
        assert_eq!(s.latency_percentile(1.0), Some(7));
    }

    #[test]
    fn percentile_empty_returns_none_at_endpoints() {
        assert_eq!(NetStats::new(0).latency_percentile(0.0), None);
        assert_eq!(NetStats::new(0).latency_percentile(1.0), None);
    }

    #[test]
    fn percentile_single_delivery_is_exact_at_extremes() {
        let mut s = NetStats::new(0);
        s.record_latency(37);
        // One delivery: q=1 is the value itself; the interpolated median
        // stays inside the value's bucket [32, 37].
        assert_eq!(s.latency_percentile(1.0), Some(37));
        let p50 = s.latency_percentile(0.5).unwrap();
        assert!((32..=37).contains(&p50), "p50 {p50}");
    }

    #[test]
    fn percentile_is_monotone_in_q() {
        let mut s = NetStats::new(0);
        for lat in [1u64, 3, 9, 27, 81, 243, 729] {
            s.record_latency(lat);
        }
        let qs = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0];
        let vals: Vec<u64> = qs
            .iter()
            .map(|&q| s.latency_percentile(q).unwrap())
            .collect();
        assert!(vals.windows(2).all(|w| w[0] <= w[1]), "{vals:?}");
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn percentile_rejects_above_one() {
        let mut s = NetStats::new(0);
        s.record_latency(1);
        let _ = s.latency_percentile(1.5);
    }

    #[test]
    fn utilization_math() {
        let mut s = NetStats::new(2);
        s.cycles = 100;
        s.link_busy[0] = 50;
        s.link_busy[1] = 100;
        assert!((s.avg_link_utilization() - 0.75).abs() < 1e-12);
        assert_eq!(s.link_utilizations(), vec![0.5, 1.0]);
    }

    #[test]
    fn reset_preserves_link_count() {
        let mut s = NetStats::new(3);
        s.injected = 7;
        s.cycles = 9;
        s.reset();
        assert_eq!(s.injected, 0);
        assert_eq!(s.link_busy.len(), 3);
    }

    #[test]
    fn throughput_per_node() {
        let mut s = NetStats::new(0);
        s.delivered = 200;
        s.cycles = 100;
        assert!((s.throughput(4) - 0.5).abs() < 1e-12);
    }
}

// JSON bridge (canonical serialized form; field names feed sweep job
// hashes and results). Lives here rather than in `flumen-sweep`
// because the orphan rule keeps trait impls with the type they describe.
flumen_sim::json_struct!(NetStats {
    injected,
    delivered,
    latency_sum,
    latency_max,
    latency_hist,
    bits_injected,
    bit_hops,
    link_busy,
    reconfigurations,
    cycles,
});
