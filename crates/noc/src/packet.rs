//! Packets moving through the network-on-package.

/// A network packet.
///
/// The simulator is packet-switched with per-hop serialization: a packet of
/// `bits` occupies a link for `ceil(bits / link_bits_per_cycle)` cycles,
/// which reproduces wormhole-like bandwidth contention without tracking
/// individual flits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Unique id, assigned by the creator.
    pub id: u64,
    /// Source node.
    pub src: usize,
    /// Destination node (for multicast see [`Packet::extra_dests`]).
    pub dst: usize,
    /// Payload + header size in bits.
    pub bits: u32,
    /// Cycle at which the packet was created (latency is measured from
    /// here, so source queueing during saturation is included).
    pub created_at: u64,
    /// Additional multicast destinations (empty for unicast). Only the
    /// photonic fabrics deliver these natively; electrical networks
    /// replicate the packet at injection.
    pub extra_dests: Vec<usize>,
    /// Free-form tag for the system simulator (e.g. request/reply
    /// matching). The network never interprets it.
    pub tag: u64,
}

impl Packet {
    /// Creates a unicast packet.
    pub fn new(id: u64, src: usize, dst: usize, bits: u32, created_at: u64) -> Self {
        Packet {
            id,
            src,
            dst,
            bits,
            created_at,
            extra_dests: Vec::new(),
            tag: 0,
        }
    }

    /// Creates a multicast packet; `dsts` must be non-empty.
    ///
    /// # Panics
    ///
    /// Panics if `dsts` is empty.
    pub fn multicast(id: u64, src: usize, dsts: &[usize], bits: u32, created_at: u64) -> Self {
        assert!(!dsts.is_empty(), "multicast needs at least one destination");
        Packet {
            id,
            src,
            dst: dsts[0],
            bits,
            created_at,
            extra_dests: dsts[1..].to_vec(),
            tag: 0,
        }
    }

    /// All destinations (primary plus extras).
    pub fn dests(&self) -> Vec<usize> {
        self.dest_iter().collect()
    }

    /// All destinations (primary plus extras), without allocating.
    pub(crate) fn dest_iter(&self) -> impl Iterator<Item = usize> + '_ {
        std::iter::once(self.dst).chain(self.extra_dests.iter().copied())
    }

    /// Whether this packet has more than one destination.
    pub fn is_multicast(&self) -> bool {
        !self.extra_dests.is_empty()
    }

    /// Splits a multicast into one unicast per destination, for fabrics
    /// that replicate at the source. Replica `i` goes to `dests()[i]`
    /// with id `id + (i << 48)`, so every copy keeps its own trace span.
    pub(crate) fn unicast_replicas(&self) -> Vec<Packet> {
        self.dests()
            .into_iter()
            .enumerate()
            .map(|(i, d)| {
                let mut p = self.clone();
                p.dst = d;
                p.extra_dests.clear();
                p.id = self.id.wrapping_add((i as u64) << 48);
                p
            })
            .collect()
    }

    /// Serialization time over a link moving `bits_per_cycle` bits per
    /// cycle (at least 1 cycle).
    pub fn ser_cycles(&self, bits_per_cycle: u32) -> u64 {
        (self.bits as u64)
            .div_ceil(bits_per_cycle.max(1) as u64)
            .max(1)
    }
}

/// A delivered packet together with its delivery metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery {
    /// The packet (with `dst` set to the node that received it).
    pub packet: Packet,
    /// Cycle of delivery.
    pub at: u64,
}

impl Delivery {
    /// End-to-end latency in cycles (creation to delivery).
    pub fn latency(&self) -> u64 {
        self.at.saturating_sub(self.packet.created_at)
    }
}

// Canonical JSON bridge for checkpoints. `id` uses the full 64-bit range
// (electrical multicast replicas fold a replica index into the top bits),
// which `Json::Num`'s f64 cannot hold exactly — so it rides as hex.
impl flumen_sim::ToJson for Packet {
    fn to_json(&self) -> flumen_sim::Json {
        flumen_sim::Json::obj([
            ("bits", self.bits.to_json()),
            ("created_at", self.created_at.to_json()),
            ("dst", self.dst.to_json()),
            ("extra_dests", self.extra_dests.to_json()),
            ("id", flumen_sim::json::u64_hex(self.id)),
            ("src", self.src.to_json()),
            ("tag", self.tag.to_json()),
        ])
    }
}

impl flumen_sim::FromJson for Packet {
    fn from_json(j: &flumen_sim::Json) -> Result<Self, flumen_sim::JsonError> {
        Ok(Packet {
            id: flumen_sim::json::u64_from_hex(j.get("id")?)?,
            src: usize::from_json(j.get("src")?)?,
            dst: usize::from_json(j.get("dst")?)?,
            bits: u32::from_json(j.get("bits")?)?,
            created_at: u64::from_json(j.get("created_at")?)?,
            extra_dests: Vec::from_json(j.get("extra_dests")?)?,
            tag: u64::from_json(j.get("tag")?)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ser_cycles_rounds_up() {
        let p = Packet::new(1, 0, 1, 512, 0);
        assert_eq!(p.ser_cycles(256), 2);
        assert_eq!(p.ser_cycles(320), 2);
        assert_eq!(p.ser_cycles(512), 1);
        assert_eq!(p.ser_cycles(1024), 1);
    }

    #[test]
    fn ser_cycles_minimum_one() {
        let p = Packet::new(1, 0, 1, 8, 0);
        assert_eq!(p.ser_cycles(1024), 1);
    }

    #[test]
    fn multicast_dests() {
        let p = Packet::multicast(1, 0, &[3, 5, 7], 512, 0);
        assert!(p.is_multicast());
        assert_eq!(p.dests(), vec![3, 5, 7]);
        let u = Packet::new(2, 0, 4, 512, 0);
        assert!(!u.is_multicast());
        assert_eq!(u.dests(), vec![4]);
    }

    #[test]
    #[should_panic(expected = "at least one destination")]
    fn empty_multicast_panics() {
        let _ = Packet::multicast(1, 0, &[], 512, 0);
    }

    #[test]
    fn delivery_latency() {
        let p = Packet::new(1, 0, 1, 512, 10);
        let d = Delivery { packet: p, at: 25 };
        assert_eq!(d.latency(), 15);
    }
}
