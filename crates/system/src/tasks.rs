//! The work unit vocabulary cores execute.
//!
//! Benchmarks compile into per-core task queues of these items; the engine
//! interprets them against the cache hierarchy and the NoP.

/// One unit of work for a core.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreTask {
    /// Pure computation: `ops` operations at the core's sustained IPC.
    Compute {
        /// Operation count (MACs / ALU ops).
        ops: u64,
    },
    /// A kernel block: byte-addressed reads and writes walked through the
    /// cache hierarchy, plus `ops` of computation overlapped with them.
    Stream {
        /// Operations executed over this block.
        ops: u64,
        /// Byte addresses read (typically one entry per touched line).
        reads: Vec<u64>,
        /// Byte addresses written.
        writes: Vec<u64>,
    },
    /// Round-trip message to another chiplet: request of `req_bits`, a
    /// service time at the destination, and a reply of `reply_bits`. The
    /// core blocks until the reply arrives. This is the primitive the
    /// Flumen runtime uses for offload requests and result returns.
    NetRequest {
        /// Destination chiplet (network endpoint).
        dst_chiplet: usize,
        /// Request packet size, bits.
        req_bits: u32,
        /// Reply packet size, bits.
        reply_bits: u32,
        /// Service latency at the destination, cycles.
        server_cycles: u64,
    },
    /// Fire-and-forget message (operand push, writeback). Multicast when
    /// `dst_chiplets` has several entries — electrical networks replicate
    /// it, photonic ones deliver it in one transmission.
    NetSend {
        /// Destination chiplets.
        dst_chiplets: Vec<usize>,
        /// Packet size, bits.
        bits: u32,
    },
    /// Synchronization point: the core waits until every core in the
    /// system has reached the same barrier id.
    Barrier {
        /// Barrier identifier (must be used once per core).
        id: u32,
    },
    /// Offload request to the external server (the MZIM control unit in
    /// Flumen-A). The core blocks until the server completes or rejects
    /// it; on rejection the `fallback` tasks run instead (the paper's
    /// "compute locally" path).
    External {
        /// Opaque request descriptor interpreted by the server.
        payload: crate::engine::ExternalPayload,
        /// Tasks executed locally if the request is rejected.
        fallback: Vec<CoreTask>,
    },
}

impl CoreTask {
    /// Convenience constructor for a line-granular read-only stream.
    pub fn stream_reads(ops: u64, reads: Vec<u64>) -> Self {
        CoreTask::Stream {
            ops,
            reads,
            writes: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_reads_helper() {
        let t = CoreTask::stream_reads(100, vec![0, 64]);
        match t {
            CoreTask::Stream { ops, reads, writes } => {
                assert_eq!(ops, 100);
                assert_eq!(reads.len(), 2);
                assert!(writes.is_empty());
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
