//! Time-tagged in-flight buffers (items on a wire).

use flumen_sim::{FromJson, Json, JsonError, ToJson};

/// Items in flight, each tagged with its arrival cycle.
///
/// The drain order is *position-dependent*: [`FlightBuffer::drain_due`]
/// scans with `swap_remove`, exactly like the open-coded loops it
/// replaced in the legacy fabrics, so downstream delivery order (and
/// therefore every RNG/stat sequence) is preserved bit-for-bit. The
/// serialized form is the plain `Vec<(u64, T)>` in its exact order.
///
/// Arrival cycles and items sit in two parallel columns, and every
/// `swap_remove` applies to both, so a scan for due arrivals reads only
/// the 8-byte arrival column. `next` caches the earliest arrival
/// (`u64::MAX` when empty): a step with nothing due returns without a
/// scan, and [`FlightBuffer::next_due`] is O(1).
#[derive(Debug, Clone)]
pub(crate) struct FlightBuffer<T> {
    ats: Vec<u64>,
    items: Vec<T>,
    next: u64,
}

impl<T> FlightBuffer<T> {
    /// An empty buffer.
    pub(crate) fn new() -> Self {
        FlightBuffer {
            ats: Vec::new(),
            items: Vec::new(),
            next: u64::MAX,
        }
    }

    /// Adds an item arriving at cycle `at`.
    pub(crate) fn push(&mut self, at: u64, item: T) {
        self.ats.push(at);
        self.items.push(item);
        self.next = self.next.min(at);
    }

    /// Removes every item with `at ≤ now`, invoking `f` on each in
    /// swap-remove scan order (the legacy fabrics' exact order).
    pub(crate) fn drain_due(&mut self, now: u64, mut f: impl FnMut(T)) {
        if self.next > now {
            return;
        }
        let mut next = u64::MAX;
        let mut i = 0;
        while let Some(&at) = self.ats.get(i) {
            if at <= now {
                self.ats.swap_remove(i);
                f(self.items.swap_remove(i));
            } else {
                next = next.min(at);
                i += 1;
            }
        }
        self.next = next;
    }

    /// The earliest arrival cycle, if anything is in flight.
    pub(crate) fn next_due(&self) -> Option<u64> {
        (!self.ats.is_empty()).then_some(self.next)
    }

    /// Items currently in flight.
    pub(crate) fn len(&self) -> usize {
        self.ats.len()
    }

    /// The entries as `(arrival, item)` in their exact positional order
    /// (checkpoints).
    pub(crate) fn entries(&self) -> impl Iterator<Item = (u64, &T)> {
        self.ats.iter().copied().zip(&self.items)
    }

    /// Rebuilds the buffer from checkpointed entries, preserving order.
    pub(crate) fn from_entries(entries: Vec<(u64, T)>) -> Self {
        let mut fb = FlightBuffer::new();
        for (at, item) in entries {
            fb.push(at, item);
        }
        fb
    }
}

impl<T> Default for FlightBuffer<T> {
    fn default() -> Self {
        FlightBuffer::new()
    }
}

impl<T: ToJson> ToJson for FlightBuffer<T> {
    fn to_json(&self) -> Json {
        Json::Arr(
            self.entries()
                .map(|(at, item)| Json::Arr(vec![at.to_json(), item.to_json()]))
                .collect(),
        )
    }
}

impl<T: FromJson> FromJson for FlightBuffer<T> {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        Ok(FlightBuffer::from_entries(Vec::from_json(j)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn drain_matches_swap_remove_order() {
        // Reference: the open-coded loop the legacy fabrics used.
        let seed: Vec<(u64, u32)> = vec![(5, 0), (1, 1), (1, 2), (9, 3), (0, 4)];
        let mut reference = seed.clone();
        let mut ref_order = Vec::new();
        let mut i = 0;
        while i < reference.len() {
            if reference[i].0 <= 1 {
                ref_order.push(reference.swap_remove(i).1);
            } else {
                i += 1;
            }
        }

        let mut fb = FlightBuffer::new();
        for (at, item) in seed {
            fb.push(at, item);
        }
        let mut got = Vec::new();
        fb.drain_due(1, |item| got.push(item));
        assert_eq!(got, ref_order);
        assert_eq!(fb.len(), 2);
    }

    #[test]
    fn json_matches_vec_of_tuples() {
        let mut fb = FlightBuffer::new();
        fb.push(3, 10u64);
        fb.push(1, 20u64);
        let v: Vec<(u64, u64)> = vec![(3, 10), (1, 20)];
        assert_eq!(fb.to_json().to_canonical(), v.to_json().to_canonical());
        let back = FlightBuffer::<u64>::from_json(&fb.to_json()).unwrap();
        assert!(back.entries().eq(fb.entries()));
        assert_eq!(back.next_due(), Some(1));
    }

    /// One operation on a buffer.
    enum Op {
        Push(u64, u32),
        Drain(u64),
        /// Round-trip through `entries`/`from_entries` (a restore).
        Rebuild,
    }

    fn op(rng: &mut StdRng) -> Op {
        match rng.gen_range(0..6) {
            0..=2 => Op::Push(rng.gen_range(0..40), rng.gen()),
            3 | 4 => Op::Drain(rng.gen_range(0..40)),
            _ => Op::Rebuild,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The two-column buffer drains, reports its earliest arrival and
        /// serializes exactly like the single `Vec<(u64, T)>` scanned
        /// with `swap_remove` that it replaced.
        #[test]
        fn matches_the_swap_remove_vec(seed in any::<u64>(), len in 0..120usize) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut model: Vec<(u64, u32)> = Vec::new();
            let mut fb = FlightBuffer::new();
            for _ in 0..len {
                match op(&mut rng) {
                    Op::Push(at, item) => {
                        model.push((at, item));
                        fb.push(at, item);
                    }
                    Op::Drain(now) => {
                        let mut want = Vec::new();
                        let mut i = 0;
                        while i < model.len() {
                            if model[i].0 <= now {
                                want.push(model.swap_remove(i).1);
                            } else {
                                i += 1;
                            }
                        }
                        let mut got = Vec::new();
                        fb.drain_due(now, |item| got.push(item));
                        prop_assert_eq!(got, want);
                    }
                    Op::Rebuild => {
                        let entries = fb.entries().map(|(at, &item)| (at, item)).collect();
                        fb = FlightBuffer::from_entries(entries);
                    }
                }
                prop_assert_eq!(fb.len(), model.len());
                prop_assert_eq!(fb.next_due(), model.iter().map(|&(at, _)| at).min());
                prop_assert_eq!(fb.to_json().to_canonical(), model.to_json().to_canonical());
            }
        }
    }
}
