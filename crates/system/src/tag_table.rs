//! A tag-indexed table for the engine's in-flight requests and replies.
//!
//! The engine hands out packet tags in increasing order and a reply reuses
//! its request's tag, so the live tags always lie in a short span that
//! starts at the oldest one still pending. The table keeps that span as
//! a window of slots, one per tag: a lookup is an index, an insert of a
//! fresh tag grows the window at the back, and a removal at the front
//! pops the slots that no longer hold anything. Tags that never enter
//! the table (fire-and-forget sends, offloads) are empty slots inside the
//! window until the front passes them.

use std::collections::VecDeque;

/// Values keyed by tag, held in a window that starts at the oldest live
/// tag.
#[derive(Debug)]
pub(crate) struct TagTable<V> {
    /// Slot `i` holds tag `base + i`; the front slot is occupied unless
    /// the window is empty.
    window: VecDeque<Option<V>>,
    base: u64,
    live: usize,
}

impl<V> TagTable<V> {
    /// An empty table.
    pub(crate) fn new() -> Self {
        TagTable {
            window: VecDeque::new(),
            base: 0,
            live: 0,
        }
    }

    /// Stores `v` under `tag`, replacing any value there.
    ///
    /// # Panics
    ///
    /// Panics if the table is non-empty and `tag` is older than its
    /// oldest live tag. The engine never does this: it inserts fresh tags,
    /// which exceed every live one, and replies at their request's tag,
    /// which is still live.
    pub(crate) fn insert(&mut self, tag: u64, v: V) {
        if self.window.is_empty() {
            self.base = tag;
        }
        let i = tag
            .checked_sub(self.base)
            .and_then(|i| usize::try_from(i).ok())
            .expect("tag older than the table's oldest live tag");
        if i >= self.window.len() {
            self.window.resize_with(i + 1, || None);
        }
        if self.window[i].replace(v).is_none() {
            self.live += 1;
        }
    }

    /// The value under `tag`, if any.
    pub(crate) fn get(&self, tag: u64) -> Option<&V> {
        self.window.get(self.slot(tag)?)?.as_ref()
    }

    /// Removes and returns the value under `tag`, if any.
    pub(crate) fn remove(&mut self, tag: u64) -> Option<V> {
        let i = self.slot(tag)?;
        let v = self.window.get_mut(i)?.take()?;
        self.live -= 1;
        while let Some(None) = self.window.front() {
            self.window.pop_front();
            self.base += 1;
        }
        Some(v)
    }

    /// Whether no tag is live.
    pub(crate) fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The live `(tag, value)` pairs in increasing tag order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, &V)> {
        (self.base..)
            .zip(&self.window)
            .filter_map(|(tag, slot)| Some((tag, slot.as_ref()?)))
    }

    /// The window index of `tag`, if it lies at or after the base.
    fn slot(&self, tag: u64) -> Option<usize> {
        usize::try_from(tag.checked_sub(self.base)?).ok()
    }
}

// Equal when the same tags hold the same values: the window's base and
// its empty slots are layout, not state.
impl<V: PartialEq> PartialEq for TagTable<V> {
    fn eq(&self, other: &Self) -> bool {
        self.live == other.live && self.iter().eq(other.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;

    /// What a tag holds, as in the engine: a request that is removed on
    /// delivery (a writeback) or turned into a reply, and a reply that is
    /// removed on delivery.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Entry {
        Request { writeback: bool },
        Reply,
    }

    /// One engine event.
    enum Op {
        /// Take a fresh tag; `None` is a tag that never enters the
        /// table (a fire-and-forget send or an offload).
        Fresh(Option<bool>),
        /// Deliver the packet of the `n`-th live tag (modulo the count).
        Deliver(usize),
        /// Deliver a tag no packet carries.
        Stray(u64),
    }

    fn op(rng: &mut StdRng) -> Op {
        match rng.gen_range(0..10) {
            0..=3 => Op::Fresh(rng.gen_bool(0.8).then(|| rng.gen())),
            4..=7 => Op::Deliver(rng.gen()),
            _ => Op::Stray(rng.gen_range(0..400)),
        }
    }

    fn export(t: &TagTable<Entry>) -> BTreeMap<u64, Entry> {
        t.iter().map(|(tag, &v)| (tag, v)).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Under the engine's access pattern (increasing fresh tags,
        /// writebacks and replies removed on delivery, a request turned
        /// into a reply at its own tag) the window answers every lookup
        /// like a `BTreeMap` and exports the same map.
        #[test]
        fn matches_a_btreemap(seed in any::<u64>(), len in 0..300usize) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut model: BTreeMap<u64, Entry> = BTreeMap::new();
            let mut table = TagTable::new();
            let mut next_tag = 1u64;
            for _ in 0..len {
                let delivered = match op(&mut rng) {
                    Op::Fresh(kind) => {
                        let tag = next_tag;
                        next_tag += 1;
                        if let Some(writeback) = kind {
                            let v = Entry::Request { writeback };
                            model.insert(tag, v);
                            table.insert(tag, v);
                        }
                        None
                    }
                    Op::Deliver(n) if !model.is_empty() => {
                        model.keys().nth(n % model.len()).copied()
                    }
                    Op::Deliver(_) => None,
                    Op::Stray(tag) => Some(tag),
                };
                if let Some(tag) = delivered {
                    prop_assert_eq!(table.get(tag), model.get(&tag));
                    match model.get(&tag).copied() {
                        Some(Entry::Request { writeback: false }) => {
                            model.insert(tag, Entry::Reply);
                            table.insert(tag, Entry::Reply);
                        }
                        Some(_) => {
                            prop_assert_eq!(table.remove(tag), model.remove(&tag));
                        }
                        None => prop_assert_eq!(table.remove(tag), None),
                    }
                }
                prop_assert_eq!(table.is_empty(), model.is_empty());
                prop_assert_eq!(export(&table), model.clone());
                for tag in 0..next_tag + 1 {
                    prop_assert_eq!(table.get(tag), model.get(&tag));
                }
            }
        }
    }

    #[test]
    fn removing_the_oldest_tag_advances_the_window() {
        let mut t = TagTable::new();
        t.insert(5, 'a');
        t.insert(9, 'b');
        assert_eq!(t.window.len(), 5);
        assert_eq!(t.remove(5), Some('a'));
        assert_eq!((t.base, t.window.len()), (9, 1));
        assert_eq!(t.remove(9), Some('b'));
        assert!(t.is_empty() && t.window.is_empty());
        t.insert(20, 'c');
        assert_eq!((t.base, t.window.len()), (20, 1));
        assert_eq!(t.get(19), None);
    }
}
