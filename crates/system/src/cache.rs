//! Functional set-associative LRU cache.

use crate::config::CacheConfig;

/// Result of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Whether the line was present.
    pub hit: bool,
    /// A dirty line evicted by this access (write-back traffic), if any.
    pub dirty_evict: Option<u64>,
}

/// A set-associative cache with true-LRU replacement and write-back,
/// write-allocate semantics.
///
/// # Examples
///
/// ```
/// use flumen_system::{Cache, CacheConfig};
/// let mut c = Cache::new(&CacheConfig { size_bytes: 1024, line_bytes: 64, ways: 2, latency: 1 });
/// assert!(!c.access(0x40, false).hit); // cold miss
/// assert!(c.access(0x40, false).hit);  // now cached
/// ```
///
/// Equality compares the fields as stored. That is state equality: slots
/// past a set's fill are never written, and `lines` is allocated exactly
/// when the cache has been accessed since it was built or cleared.
#[derive(Debug, Clone, PartialEq)]
pub struct Cache {
    /// Set-major line words, `ways` slots per set, each `tag << 1 | dirty`.
    /// A set's valid lines fill its first `fill[set]` slots, LRU first and
    /// MRU last. Empty until the first access, so a cache that is never
    /// touched costs no memory.
    lines: Vec<u64>,
    /// Valid lines per set; empty while `lines` is.
    fill: Vec<u8>,
    sets: usize,
    ways: usize,
    line_shift: u32,
    set_bits: u32,
    /// Total accesses.
    pub accesses: u64,
    /// Total misses.
    pub misses: u64,
}

impl Cache {
    /// Builds an empty cache from its configuration.
    ///
    /// # Panics
    ///
    /// Panics unless sizes are powers of two, the geometry is consistent,
    /// there are at most 255 ways, and lines or sets take at least one
    /// address bit (so a tag fits beside its dirty bit).
    pub fn new(cfg: &CacheConfig) -> Self {
        let sets = cfg.sets();
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        assert!(
            cfg.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(cfg.ways <= usize::from(u8::MAX), "at most 255 ways");
        assert!(
            sets * cfg.line_bytes > 1,
            "lines or sets must take an address bit"
        );
        Cache {
            lines: Vec::new(),
            fill: Vec::new(),
            sets,
            ways: cfg.ways,
            line_shift: cfg.line_bytes.trailing_zeros(),
            set_bits: sets.trailing_zeros(),
            accesses: 0,
            misses: 0,
        }
    }

    /// Accesses byte address `addr`; `write` marks the line dirty.
    pub fn access(&mut self, addr: u64, write: bool) -> AccessResult {
        self.accesses += 1;
        if self.lines.is_empty() {
            // Allocated here, not in `new`, so a system pays no memset for
            // caches it never touches; `vec![0; n]` asks the allocator for
            // zeroed memory instead of writing every slot.
            self.lines = vec![0; self.sets * self.ways];
            self.fill = vec![0; self.sets];
        }
        let line_addr = addr >> self.line_shift;
        let set_idx = (line_addr & ((1 << self.set_bits) - 1)) as usize;
        let tag = line_addr >> self.set_bits;
        let fill = usize::from(self.fill[set_idx]);
        let base = set_idx * self.ways;
        let set = &mut self.lines[base..base + self.ways];

        if let Some(pos) = set[..fill].iter().position(|&w| w >> 1 == tag) {
            let word = set[pos] | u64::from(write);
            set.copy_within(pos + 1..fill, pos);
            set[fill - 1] = word;
            return AccessResult {
                hit: true,
                dirty_evict: None,
            };
        }

        self.misses += 1;
        let word = tag << 1 | u64::from(write);
        if fill < self.ways {
            set[fill] = word;
            self.fill[set_idx] += 1;
            return AccessResult {
                hit: false,
                dirty_evict: None,
            };
        }
        let victim = set[0];
        set.copy_within(1.., 0);
        set[fill - 1] = word;
        // Reconstruct a dirty victim's byte address.
        let dirty_evict = (victim & 1 == 1).then(|| {
            let victim_line = (victim >> 1 << self.set_bits) | set_idx as u64;
            victim_line << self.line_shift
        });
        AccessResult {
            hit: false,
            dirty_evict,
        }
    }

    /// Hit rate so far (1.0 when no accesses yet).
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            1.0
        } else {
            1.0 - self.misses as f64 / self.accesses as f64
        }
    }

    /// Drops all contents and statistics.
    pub fn clear(&mut self) {
        self.lines = Vec::new();
        self.fill = Vec::new();
        self.accesses = 0;
        self.misses = 0;
    }

    /// Set `set`'s valid line words, LRU first.
    #[cfg(test)]
    fn set_lines(&self, set: usize) -> &[u64] {
        match self.fill.get(set) {
            Some(&fill) => &self.lines[set * self.ways..][..usize::from(fill)],
            None => &[],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        Cache::new(&CacheConfig {
            size_bytes: 512,
            line_bytes: 64,
            ways: 2,
            latency: 1,
        })
        // 4 sets × 2 ways.
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = small();
        assert!(!c.access(0, false).hit);
        assert!(c.access(0, false).hit);
        assert!(c.access(63, false).hit); // same line
        assert!(!c.access(64, false).hit); // next line
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = small();
        // Three lines mapping to set 0 (stride = 4 sets × 64 B = 256 B).
        c.access(0, false);
        c.access(256, false);
        c.access(0, false); // 0 becomes MRU
        c.access(512, false); // evicts 256
        assert!(c.access(0, false).hit);
        assert!(!c.access(256, false).hit);
    }

    #[test]
    fn dirty_eviction_reports_victim_address() {
        let mut c = small();
        c.access(0, true);
        c.access(256, false);
        let r = c.access(512, false); // evicts dirty line 0
        assert_eq!(r.dirty_evict, Some(0));
        // Clean eviction reports nothing.
        let r2 = c.access(768, false); // evicts clean 256
        assert_eq!(r2.dirty_evict, None);
    }

    #[test]
    fn write_marks_dirty_on_hit() {
        let mut c = small();
        c.access(0, false);
        c.access(0, true); // dirty now
        c.access(256, false);
        let r = c.access(512, false);
        assert_eq!(r.dirty_evict, Some(0));
    }

    #[test]
    fn hit_rate_accounting() {
        let mut c = small();
        c.access(0, false);
        c.access(0, false);
        c.access(0, false);
        c.access(64, false);
        assert_eq!(c.accesses, 4);
        assert_eq!(c.misses, 2);
        assert!((c.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn clear_resets() {
        let mut c = small();
        c.access(0, false);
        c.clear();
        assert_eq!(c.accesses, 0);
        assert!(!c.access(0, false).hit);
    }

    /// FNV-1a over the little-endian bytes of `words`.
    fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
        words
            .into_iter()
            .flat_map(u64::to_le_bytes)
            .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            })
    }

    /// A digest of everything a cache holds: per set, its fill and its
    /// line words (tag and dirty bit) LRU first; then the statistics.
    fn digest(c: &Cache) -> u64 {
        let sets = (0..c.sets).flat_map(|set| {
            let lines = c.set_lines(set);
            std::iter::once(lines.len() as u64).chain(lines.iter().copied())
        });
        fnv1a(sets.chain([c.accesses, c.misses]))
    }

    /// A fixed mix of reads and writes with hot lines and a cold stream
    /// over `span` bytes, enough to fill, hit, reorder and evict (clean
    /// and dirty) in every set of the paper's geometries.
    fn replay(c: &mut Cache, span: u64) -> u64 {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut evicted = 0u64;
        for i in 0..40_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let addr = if i % 3 == 0 { x % (span / 8) } else { x % span };
            let r = c.access(addr, x >> 60 == 0);
            if let Some(v) = r.dirty_evict {
                evicted = evicted.wrapping_mul(31).wrapping_add(v);
            }
        }
        evicted
    }

    /// The contents of the paper's L1d, L2 and L3-slice caches after a
    /// fixed access sequence. The digests were recorded on cache code
    /// whose earlier canonical-JSON digests, pinned before the cache
    /// moved to flat set arrays, still held.
    #[test]
    fn contents_are_pinned() {
        let paper = crate::SystemConfig::paper();
        let geometries = [
            ("l1d", &paper.l1d),
            ("l2", &paper.l2),
            ("l3", &paper.l3_slice),
        ];
        let mut got = Vec::new();
        for (name, cfg) in geometries {
            let mut c = Cache::new(cfg);
            let evicted = replay(&mut c, 4 * cfg.size_bytes as u64);
            let lines: usize = (0..c.sets).map(|set| c.set_lines(set).len()).sum();
            got.push((name, digest(&c), evicted, lines));
        }
        let pinned: [(&str, u64, u64, usize); 3] = [
            ("l1d", 0x0f09a819a598e29d, 0x926304bcc8bc7d00, 512),
            ("l2", 0x020422909a5ef91b, 0x4ecdc6d5a02a93c0, 8192),
            ("l3", 0xdb8867f6b5018693, 0x037008d91ac1d540, 16383),
        ];
        assert_eq!(got, pinned, "{got:#x?}");
    }

    #[test]
    fn distinct_sets_do_not_conflict() {
        let mut c = small();
        for i in 0..4u64 {
            c.access(i * 64, false);
        }
        for i in 0..4u64 {
            assert!(c.access(i * 64, false).hit);
        }
    }
}
