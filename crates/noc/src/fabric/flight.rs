//! Time-tagged in-flight buffers (items on a wire).

use flumen_sim::{FromJson, Json, JsonError, ToJson};

/// Items in flight, each tagged with its arrival cycle.
///
/// The drain order is *position-dependent*: [`FlightBuffer::drain_due`]
/// scans with `swap_remove`, exactly like the open-coded loops it
/// replaced in the legacy fabrics, so downstream delivery order (and
/// therefore every RNG/stat sequence) is preserved bit-for-bit. The
/// serialized form is the plain `Vec<(u64, T)>` in its exact order.
#[derive(Debug, Clone)]
pub(crate) struct FlightBuffer<T> {
    entries: Vec<(u64, T)>,
}

impl<T> FlightBuffer<T> {
    /// An empty buffer.
    pub(crate) fn new() -> Self {
        FlightBuffer {
            entries: Vec::new(),
        }
    }

    /// Adds an item arriving at cycle `at`.
    pub(crate) fn push(&mut self, at: u64, item: T) {
        self.entries.push((at, item));
    }

    /// Removes every item with `at ≤ now`, invoking `f` on each in
    /// swap-remove scan order (the legacy fabrics' exact order).
    pub(crate) fn drain_due(&mut self, now: u64, mut f: impl FnMut(T)) {
        let mut i = 0;
        while i < self.entries.len() {
            let due = self.entries.get(i).is_some_and(|(at, _)| *at <= now);
            if due {
                let (_, item) = self.entries.swap_remove(i);
                f(item);
            } else {
                i += 1;
            }
        }
    }

    /// The earliest arrival cycle, if anything is in flight.
    pub(crate) fn next_due(&self) -> Option<u64> {
        self.entries.iter().map(|&(at, _)| at).min()
    }

    /// Items currently in flight.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// The raw entries in their exact positional order (checkpoints).
    pub(crate) fn entries(&self) -> &[(u64, T)] {
        &self.entries
    }

    /// Rebuilds the buffer from checkpointed entries, preserving order.
    pub(crate) fn from_entries(entries: Vec<(u64, T)>) -> Self {
        FlightBuffer { entries }
    }
}

impl<T> Default for FlightBuffer<T> {
    fn default() -> Self {
        FlightBuffer::new()
    }
}

impl<T: ToJson> ToJson for FlightBuffer<T> {
    fn to_json(&self) -> Json {
        self.entries.to_json()
    }
}

impl<T: FromJson> FromJson for FlightBuffer<T> {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        Ok(FlightBuffer {
            entries: Vec::from_json(j)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(back.entries(), fb.entries());
    }
}
