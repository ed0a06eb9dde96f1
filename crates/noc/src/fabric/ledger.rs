//! The packet ledger every network keeps at its edge: the clock, the
//! statistics, and the `pkt` trace span from injection to delivery.

use crate::packet::{Delivery, Packet};
use crate::stats::NetStats;
use flumen_trace::{EventKind, TraceCategory, TraceEvent, TraceHandle};

/// A network's clock, statistics and trace sink, and the bookkeeping
/// every topology does the same way: count an injection and open its
/// `pkt` span, record a delivery's latency and close the span once per
/// destination, and advance the clock. What happens between injection
/// and delivery stays with the network.
#[derive(Debug, PartialEq)]
pub(crate) struct Ledger {
    pub(crate) cycle: u64,
    pub(crate) stats: NetStats,
    pub(crate) tracer: TraceHandle,
}

impl Ledger {
    /// A ledger at cycle 0 with `links` utilization counters and tracing
    /// off.
    pub(crate) fn new(links: usize) -> Self {
        Ledger {
            cycle: 0,
            stats: NetStats::new(links),
            tracer: TraceHandle::disabled(),
        }
    }

    /// Counts `pkt` as injected and opens its `pkt` span at its source.
    pub(crate) fn inject(&mut self, pkt: &Packet) {
        self.stats.injected += 1;
        self.stats.bits_injected += pkt.bits as u64;
        let now = self.cycle;
        self.tracer.emit(|| {
            TraceEvent::new(
                TraceCategory::Noc,
                "pkt",
                EventKind::AsyncBegin,
                now,
                pkt.src as u32,
            )
            .with_id(pkt.id)
            .with_arg("ndest", pkt.dest_iter().count() as f64)
            .with_arg("bits", pkt.bits as f64)
        });
    }

    /// Delivers `pkt` this cycle to each of its destinations in order,
    /// primary first: one [`Delivery`] apiece with `dst` set and no extra
    /// destinations, each with its latency recorded and its span closed.
    pub(crate) fn deliver(&mut self, mut pkt: Packet, out: &mut Vec<Delivery>) {
        let now = self.cycle;
        let lat = now.saturating_sub(pkt.created_at);
        let extra = std::mem::take(&mut pkt.extra_dests);
        for d in std::iter::once(pkt.dst).chain(extra) {
            self.stats.record_latency(lat);
            self.tracer.emit(|| {
                TraceEvent::new(
                    TraceCategory::Noc,
                    "pkt",
                    EventKind::AsyncEnd,
                    now,
                    d as u32,
                )
                .with_id(pkt.id)
                .with_arg("lat", lat as f64)
            });
            let mut packet = pkt.clone();
            packet.dst = d;
            out.push(Delivery { packet, at: now });
        }
    }

    /// Advances the clock `cycles` cycles.
    pub(crate) fn tick(&mut self, cycles: u64) {
        self.cycle += cycles;
        self.stats.cycles += cycles;
    }
}
