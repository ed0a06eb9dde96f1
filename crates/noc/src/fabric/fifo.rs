//! The FIFO shared by the hand-written networks' queues and the composed
//! routers' input buffers.

use std::collections::VecDeque;

/// A FIFO of payloads with optional bounded capacity.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Fifo<P> {
    items: VecDeque<P>,
    capacity: Option<usize>,
}

impl<P> Fifo<P> {
    /// A FIFO with no capacity limit (open-loop source queues).
    pub(crate) fn unbounded() -> Self {
        Fifo {
            items: VecDeque::new(),
            capacity: None,
        }
    }

    /// A FIFO holding at most `capacity` items.
    pub(crate) fn bounded(capacity: usize) -> Self {
        Fifo {
            items: VecDeque::new(),
            capacity: Some(capacity),
        }
    }

    /// Appends an item; returns `false` (item dropped by the caller's
    /// choice to check first) when the FIFO is full.
    pub(crate) fn push_back(&mut self, item: P) -> bool {
        if self.is_full() {
            return false;
        }
        self.items.push_back(item);
        true
    }

    /// Removes and returns the oldest item.
    pub(crate) fn pop_front(&mut self) -> Option<P> {
        self.items.pop_front()
    }

    /// The oldest item, if any.
    pub(crate) fn front(&self) -> Option<&P> {
        self.items.front()
    }

    /// Queue occupancy.
    pub(crate) fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the queue is empty.
    pub(crate) fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Whether another `push_back` would be refused.
    pub(crate) fn is_full(&self) -> bool {
        self.capacity.is_some_and(|c| self.items.len() >= c)
    }

    /// Free slots remaining (`usize::MAX` when unbounded) — the credit
    /// count a consumer publishes on its input channel.
    pub(crate) fn free_slots(&self) -> usize {
        match self.capacity {
            Some(c) => c.saturating_sub(self.items.len()),
            None => usize::MAX,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_refuses_overflow() {
        let mut f = Fifo::bounded(2);
        assert!(f.push_back(1));
        assert!(f.push_back(2));
        assert!(!f.push_back(3));
        assert_eq!(f.len(), 2);
        assert_eq!(f.free_slots(), 0);
        assert_eq!(f.pop_front(), Some(1));
        assert_eq!(f.free_slots(), 1);
    }

    #[test]
    fn unbounded_always_accepts() {
        let mut f = Fifo::unbounded();
        for i in 0..100 {
            assert!(f.push_back(i));
        }
        assert_eq!(f.free_slots(), usize::MAX);
    }
}
