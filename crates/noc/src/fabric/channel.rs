//! Credit channels: the wires between a composed fabric's routers.

use std::collections::VecDeque;

/// Handle to one channel inside a [`Channels`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct ChannelId(usize);

impl ChannelId {
    /// The channel's dense index — also its link id in
    /// [`NetStats::link_busy`](crate::NetStats::link_busy) for composed
    /// fabrics.
    pub(crate) fn index(&self) -> usize {
        self.0
    }
}

/// Credits published for an always-ready consumer (endpoint egress).
/// Large enough to never throttle, small enough that credit arithmetic
/// cannot overflow.
pub(crate) const CREDIT_UNBOUNDED: usize = usize::MAX / 2;

/// One latency-insensitive channel.
///
/// Items ride as `(available_at, payload)` pairs; latency is at least one
/// cycle, which is what makes the evaluation order of producers and
/// consumers within a cycle unobservable (a send can never be consumed in
/// the cycle it was issued).
#[derive(Debug, PartialEq)]
struct Channel<P> {
    /// Wire latency added to every send, cycles (≥ 1).
    latency: u64,
    /// Maximum items in flight (pipelining depth of the wire).
    capacity: usize,
    /// In-flight items, FIFO order.
    queue: VecDeque<(u64, P)>,
    /// Credits the consumer published this cycle (free buffer slots),
    /// recomputed every cycle in the ready phase.
    credits: usize,
    /// The item handed over this cycle, awaiting consumer pickup.
    delivered: Option<P>,
    /// Cycles a due head waited because the consumer had no credit.
    stalls: u64,
    /// Completed handshakes.
    transfers: u64,
}

/// The channel arena a composed fabric evaluates over.
///
/// All channels live in one dense vector so nodes refer to them by
/// [`ChannelId`] — the borrow-friendly shape for a graph where every node
/// touches several channels each cycle.
#[derive(Debug, Default, PartialEq)]
pub(crate) struct Channels<P> {
    chans: Vec<Channel<P>>,
}

impl<P> Channels<P> {
    /// An empty arena.
    pub(crate) fn new() -> Self {
        Channels { chans: Vec::new() }
    }

    /// Adds a channel with the given wire latency (clamped to ≥ 1; see
    /// the module docs for why zero-latency channels are not allowed)
    /// and in-flight capacity (clamped to ≥ 1).
    pub(crate) fn add(&mut self, latency: u64, capacity: usize) -> ChannelId {
        let id = ChannelId(self.chans.len());
        self.chans.push(Channel {
            latency: latency.max(1),
            capacity: capacity.max(1),
            queue: VecDeque::new(),
            credits: 0,
            delivered: None,
            stalls: 0,
            transfers: 0,
        });
        id
    }

    /// Number of channels (the composed fabric's link count).
    pub(crate) fn len(&self) -> usize {
        self.chans.len()
    }

    /// Publishes the consumer's free buffer slots for this cycle
    /// (phase 1 of the evaluation order).
    pub(crate) fn publish_credits(&mut self, id: ChannelId, credits: usize) {
        if let Some(ch) = self.chans.get_mut(id.0) {
            ch.credits = credits.min(CREDIT_UNBOUNDED);
        }
    }

    /// Credits published this cycle, minus items already in flight or
    /// delivered — the slots a producer may still claim. Producers gate
    /// sends on this, so admission is a pure function of last cycle's
    /// consumer state.
    pub(crate) fn effective_credits(&self, id: ChannelId) -> usize {
        match self.chans.get(id.0) {
            Some(ch) => ch
                .credits
                .saturating_sub(ch.queue.len() + usize::from(ch.delivered.is_some())),
            None => 0,
        }
    }

    /// Whether the wire itself has room for another send.
    pub(crate) fn can_send(&self, id: ChannelId) -> bool {
        self.chans
            .get(id.0)
            .is_some_and(|ch| ch.queue.len() < ch.capacity)
    }

    /// Sends a payload, arriving after the wire latency.
    pub(crate) fn send(&mut self, id: ChannelId, item: P, now: u64) {
        self.send_after(id, item, now, 0);
    }

    /// Sends a payload with `extra` cycles of producer-side delay
    /// (serialization time) in front of the wire latency.
    pub(crate) fn send_after(&mut self, id: ChannelId, item: P, now: u64, extra: u64) {
        if let Some(ch) = self.chans.get_mut(id.0) {
            debug_assert!(ch.queue.len() < ch.capacity, "send past channel capacity");
            ch.queue.push_back((now + extra + ch.latency, item));
        }
    }

    /// Phase 3: every channel whose head is due hands it to the consumer
    /// if a credit is available; otherwise the stall counter advances.
    /// Returns whether any channel stalled this cycle.
    pub(crate) fn deliver_due(&mut self, now: u64) -> bool {
        let mut stalled = false;
        for ch in &mut self.chans {
            let head_due = ch.queue.front().is_some_and(|(at, _)| *at <= now);
            if !head_due {
                continue;
            }
            if ch.delivered.is_none() && ch.credits > 0 {
                ch.delivered = ch.queue.pop_front().map(|(_, p)| p);
                ch.credits -= 1;
                ch.transfers += 1;
            } else {
                ch.stalls += 1;
                stalled = true;
            }
        }
        stalled
    }

    /// Consumer pickup of this cycle's delivered item (phase 4).
    pub(crate) fn take(&mut self, id: ChannelId) -> Option<P> {
        self.chans.get_mut(id.0).and_then(|ch| ch.delivered.take())
    }

    /// Defensive end-of-cycle sweep: an unconsumed delivered item is put
    /// back at the head of its queue, immediately due next cycle. A
    /// well-formed node never leaves one behind (it only earns a
    /// delivery by publishing a credit), but a buggy node must not
    /// silently drop payloads.
    pub(crate) fn requeue_undelivered(&mut self, now: u64) {
        for ch in &mut self.chans {
            if let Some(p) = ch.delivered.take() {
                ch.queue.push_front((now, p));
            }
        }
    }

    /// Total payloads somewhere in the arena (queues + delivered slots).
    pub(crate) fn pending(&self) -> usize {
        self.chans
            .iter()
            .map(|ch| ch.queue.len() + usize::from(ch.delivered.is_some()))
            .sum()
    }

    /// Total handshake stalls across all channels.
    pub(crate) fn stalls_total(&self) -> u64 {
        self.chans.iter().map(|ch| ch.stalls).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handshake_needs_credit() {
        let mut chans: Channels<u32> = Channels::new();
        let c = chans.add(1, 4);
        chans.send(c, 7, 0);
        // No credit published: the due head stalls.
        assert!(chans.deliver_due(1));
        assert_eq!(chans.take(c), None);
        assert_eq!(chans.chans[0].stalls, 1);
        // With a credit it transfers.
        chans.publish_credits(c, 1);
        assert!(!chans.deliver_due(1));
        assert_eq!(chans.take(c), Some(7));
        assert_eq!(chans.chans[0].transfers, 1);
    }

    #[test]
    fn latency_is_at_least_one() {
        let mut chans: Channels<u32> = Channels::new();
        let c = chans.add(0, 4);
        chans.publish_credits(c, 1);
        chans.send(c, 1, 5);
        // Not due in the send cycle, due one later.
        chans.deliver_due(5);
        assert_eq!(chans.take(c), None);
        chans.publish_credits(c, 1);
        chans.deliver_due(6);
        assert_eq!(chans.take(c), Some(1));
    }

    #[test]
    fn effective_credits_subtract_in_flight() {
        let mut chans: Channels<u32> = Channels::new();
        let c = chans.add(1, 8);
        chans.publish_credits(c, 2);
        assert_eq!(chans.effective_credits(c), 2);
        chans.send(c, 1, 0);
        assert_eq!(chans.effective_credits(c), 1);
        chans.send(c, 2, 0);
        assert_eq!(chans.effective_credits(c), 0);
    }

    #[test]
    fn requeue_preserves_unconsumed_delivery() {
        let mut chans: Channels<u32> = Channels::new();
        let c = chans.add(1, 4);
        chans.publish_credits(c, 1);
        chans.send(c, 9, 0);
        chans.deliver_due(1);
        // Consumer forgot to take: the item survives to the next cycle.
        chans.requeue_undelivered(1);
        assert_eq!(chans.pending(), 1);
        chans.publish_credits(c, 1);
        chans.deliver_due(2);
        assert_eq!(chans.take(c), Some(9));
    }
}
