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

// Canonical JSON bridge for checkpoints: variants carry a `kind` tag,
// byte addresses and the opaque offload payload ride as hex (they use the
// full 64-bit range, beyond f64's exact integers), and `External.fallback`
// recurses.
impl flumen_sim::ToJson for CoreTask {
    fn to_json(&self) -> flumen_sim::Json {
        use flumen_sim::json::u64s_hex;
        use flumen_sim::Json;
        match self {
            CoreTask::Compute { ops } => Json::obj([
                ("kind", Json::Str("compute".into())),
                ("ops", ops.to_json()),
            ]),
            CoreTask::Stream { ops, reads, writes } => Json::obj([
                ("kind", Json::Str("stream".into())),
                ("ops", ops.to_json()),
                ("reads", u64s_hex(reads)),
                ("writes", u64s_hex(writes)),
            ]),
            CoreTask::NetRequest {
                dst_chiplet,
                req_bits,
                reply_bits,
                server_cycles,
            } => Json::obj([
                ("kind", Json::Str("net_request".into())),
                ("dst_chiplet", dst_chiplet.to_json()),
                ("req_bits", req_bits.to_json()),
                ("reply_bits", reply_bits.to_json()),
                ("server_cycles", server_cycles.to_json()),
            ]),
            CoreTask::NetSend { dst_chiplets, bits } => Json::obj([
                ("kind", Json::Str("net_send".into())),
                ("dst_chiplets", dst_chiplets.to_json()),
                ("bits", bits.to_json()),
            ]),
            CoreTask::Barrier { id } => {
                Json::obj([("kind", Json::Str("barrier".into())), ("id", id.to_json())])
            }
            CoreTask::External { payload, fallback } => Json::obj([
                ("kind", Json::Str("external".into())),
                ("payload", u64s_hex(payload)),
                ("fallback", fallback.to_json()),
            ]),
        }
    }
}

impl flumen_sim::FromJson for CoreTask {
    fn from_json(j: &flumen_sim::Json) -> std::result::Result<Self, flumen_sim::JsonError> {
        use crate::engine::ExternalPayload;
        use flumen_sim::json::u64s_from_hex;
        use flumen_sim::JsonError;
        let kind = j.get("kind")?.as_str()?;
        Ok(match kind {
            "compute" => CoreTask::Compute {
                ops: u64::from_json(j.get("ops")?)?,
            },
            "stream" => CoreTask::Stream {
                ops: u64::from_json(j.get("ops")?)?,
                reads: u64s_from_hex(j.get("reads")?)?,
                writes: u64s_from_hex(j.get("writes")?)?,
            },
            "net_request" => CoreTask::NetRequest {
                dst_chiplet: usize::from_json(j.get("dst_chiplet")?)?,
                req_bits: u32::from_json(j.get("req_bits")?)?,
                reply_bits: u32::from_json(j.get("reply_bits")?)?,
                server_cycles: u64::from_json(j.get("server_cycles")?)?,
            },
            "net_send" => CoreTask::NetSend {
                dst_chiplets: Vec::from_json(j.get("dst_chiplets")?)?,
                bits: u32::from_json(j.get("bits")?)?,
            },
            "barrier" => CoreTask::Barrier {
                id: u32::from_json(j.get("id")?)?,
            },
            "external" => {
                let words = u64s_from_hex(j.get("payload")?)?;
                let payload: ExternalPayload = words.try_into().map_err(|v: Vec<u64>| {
                    JsonError(format!(
                        "CoreTask.payload: expected {} words, got {}",
                        ExternalPayload::default().len(),
                        v.len()
                    ))
                })?;
                CoreTask::External {
                    payload,
                    fallback: Vec::from_json(j.get("fallback")?)?,
                }
            }
            other => {
                return Err(JsonError(format!(
                    "CoreTask.kind: unknown variant {other:?}"
                )));
            }
        })
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

    #[test]
    fn all_variants_round_trip_through_json() {
        use flumen_sim::{FromJson, ToJson};
        let tasks = vec![
            CoreTask::Compute { ops: 42 },
            CoreTask::Stream {
                ops: 7,
                reads: vec![0, u64::MAX, 1 << 60],
                writes: vec![64],
            },
            CoreTask::NetRequest {
                dst_chiplet: 3,
                req_bits: 128,
                reply_bits: 512,
                server_cycles: 50,
            },
            CoreTask::NetSend {
                dst_chiplets: vec![1, 2],
                bits: 1024,
            },
            CoreTask::Barrier { id: 9 },
            CoreTask::External {
                payload: [1, 2, 3, 0xDEAD_BEEF_DEAD_BEEF],
                fallback: vec![CoreTask::Compute { ops: 500 }],
            },
        ];
        let back = Vec::<CoreTask>::from_json(&tasks.to_json()).unwrap();
        assert_eq!(back, tasks);
    }

    /// A payload of the wrong length (here the five-word layout of
    /// snapshot version 1) parses as an `Err`, not a truncated request.
    #[test]
    fn wrong_payload_length_is_rejected() {
        use flumen_sim::{json::u64s_hex, FromJson, Json};
        let five = Json::obj([
            ("kind", Json::Str("external".into())),
            ("payload", u64s_hex(&[1, 2, 3, 4, 42])),
            ("fallback", Json::Arr(Vec::new())),
        ]);
        let err = CoreTask::from_json(&five).unwrap_err();
        assert!(err.0.contains("expected 4 words, got 5"), "{}", err.0);
    }

    #[test]
    fn unknown_kind_is_rejected() {
        use flumen_sim::{FromJson, Json};
        let j = Json::obj([("kind", Json::Str("warp_drive".into()))]);
        assert!(CoreTask::from_json(&j).is_err());
    }
}
