//! Compiles benchmarks into per-core task graphs.
//!
//! Two execution modes:
//!
//! * [`ExecMode::Local`] — every MVM runs on the cores: weights and
//!   inputs stream through the cache hierarchy, MACs execute at the
//!   mechanistic core rate. Used by the Ring/Mesh/OptBus/Flumen-I
//!   configurations.
//! * [`ExecMode::Offload`] — MVMs become [`CoreTask::External`] requests
//!   to the MZIM control unit (weights never traverse the cores — their
//!   phases are precomputed in the control unit's matrix memory), with the
//!   local expansion attached as the rejection fallback. Cores still read
//!   inputs (they modulate them), accumulate partial sums, and write
//!   outputs.

use crate::jobs::{Benchmark, MvmJob};
use flumen_system::{CoreTask, ExternalPayload, SystemConfig};

/// How the benchmark executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// All math on the cores.
    Local,
    /// Linear algebra offloaded to the photonic fabric.
    Offload,
}

/// Task-generation tuning.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskGenConfig {
    /// Core operations per MAC (multiply, add, loads, address arithmetic,
    /// loop control) — calibrates the mechanistic core model for scalar
    /// 8-bit kernels.
    pub ops_per_mac: f64,
    /// Target MACs per local work unit.
    pub unit_macs: u64,
    /// Maximum matrix sub-block configurations per offload request.
    pub max_configs_per_request: u64,
    /// Maximum input vectors per offload request.
    pub max_vectors_per_request: usize,
    /// Compute partition width for general (SVD) jobs.
    pub svd_partition: usize,
    /// Partition width for unitary jobs that fit the whole fabric.
    pub unitary_partition: usize,
}

impl Default for TaskGenConfig {
    fn default() -> Self {
        TaskGenConfig {
            ops_per_mac: 6.0,
            unit_macs: 16_384,
            max_configs_per_request: 4096,
            max_vectors_per_request: 1024,
            svd_partition: 4,
            unitary_partition: 8,
        }
    }
}

const LINE: u64 = 64;

/// Offload payload layout: `[configs, vectors, partition_n, macs]`.
///
/// The control unit charges a request from `configs`, `vectors` and
/// `partition_n` alone. `macs` is the strip's multiply-accumulate count:
/// no server reads it, and summed over a task list it shows that the
/// offloads cover the benchmark's MACs.
pub fn offload_payload(configs: u64, vectors: u64, n: u64, macs: u64) -> ExternalPayload {
    [configs, vectors, n, macs]
}

/// Generates the per-core task queues for a benchmark.
pub fn generate(
    bench: &dyn Benchmark,
    sys: &SystemConfig,
    mode: ExecMode,
    cfg: &TaskGenConfig,
) -> Vec<Vec<CoreTask>> {
    let mut queues: Vec<Vec<CoreTask>> = vec![Vec::new(); sys.cores];
    let mut next_core = 0usize;
    let mut barrier_id = 1u32;

    let max_wave = bench.jobs().iter().map(|j| j.wave).max().unwrap_or(0);
    #[allow(clippy::explicit_counter_loop)] // barrier ids continue past the loop
    for wave in 0..=max_wave {
        let wave_jobs = bench.jobs().iter().filter(|j| j.wave == wave);
        match mode {
            ExecMode::Local => {
                for job in wave_jobs {
                    for unit in split_local_units(job, cfg) {
                        queues[next_core].push(unit);
                        next_core = (next_core + 1) % sys.cores;
                    }
                }
            }
            ExecMode::Offload => {
                // Phase-ordered across the whole wave: every core gathers
                // all its operands first, then fires its requests (each
                // followed by its partial-sum accumulation while other
                // cores' requests occupy the fabric). The network is quiet
                // when Algorithm 1 evaluates β, and a core's accumulation
                // overlaps its peers' fabric time.
                let chunks: Vec<OffloadChunk> = wave_jobs
                    .flat_map(|j| split_offload_chunks(j, cfg))
                    .collect();
                let count = chunks.len();
                let mut buckets: Vec<OffloadPhases> =
                    (0..sys.cores).map(|_| OffloadPhases::default()).collect();
                for (k, chunk) in chunks.into_iter().enumerate() {
                    let b = &mut buckets[(next_core + k) % sys.cores];
                    b.reads.push(chunk.read);
                    b.requests.push(chunk.request);
                    b.epilogues.push(chunk.epilogue);
                }
                for (c, phases) in buckets.into_iter().enumerate() {
                    let q = &mut queues[c];
                    q.extend(phases.reads);
                    for (req, epi) in phases.requests.into_iter().zip(phases.epilogues) {
                        q.push(req);
                        q.push(epi);
                    }
                }
                next_core = (next_core + count) % sys.cores;
            }
        }
        // Wave barrier (also separates waves from the epilogue).
        for q in queues.iter_mut() {
            q.push(CoreTask::Barrier { id: barrier_id });
        }
        barrier_id += 1;
    }

    // Epilogue work spread over all cores.
    let epi = bench.epilogue_ops();
    if epi > 0 {
        let share = epi.div_ceil(sys.cores as u64);
        for q in queues.iter_mut() {
            q.push(CoreTask::Compute { ops: share });
        }
    }
    queues
}

/// Line-granular addresses covering `[base + off, base + off + len)`.
fn lines(base: u64, off: u64, len: u64) -> Vec<u64> {
    if len == 0 {
        return Vec::new();
    }
    let start = (base + off) / LINE;
    let end = (base + off + len - 1) / LINE;
    (start..=end).map(|l| l * LINE).collect()
}

/// A local work unit: a strip of matrix rows times a chunk of vectors.
fn split_local_units(job: &MvmJob, cfg: &TaskGenConfig) -> Vec<CoreTask> {
    let (rows, cols, nvec) = (job.rows, job.cols, job.vector_count);

    // Choose the split so a unit is ≈ unit_macs, but never so coarse that
    // a small job fails to spread across the machine.
    let job_macs = (rows * cols * nvec) as u64;
    let unit_macs = (job_macs / 48).clamp(1_536, cfg.unit_macs);
    let macs_per_vec_row = cols as u64;
    let rows_per_strip =
        (unit_macs / (macs_per_vec_row * nvec.min(64) as u64)).clamp(1, rows as u64) as usize;
    let vecs_per_chunk =
        (unit_macs / (macs_per_vec_row * rows_per_strip as u64)).clamp(1, nvec as u64) as usize;

    let mut units = Vec::new();
    let mut r0 = 0usize;
    while r0 < rows {
        let rs = rows_per_strip.min(rows - r0);
        let mut v0 = 0usize;
        while v0 < nvec {
            let vs = vecs_per_chunk.min(nvec - v0);
            let macs = (rs * cols * vs) as u64;
            let mut reads = lines(job.weight_base, (r0 * cols) as u64, (rs * cols) as u64);
            reads.extend(lines(
                job.input_base,
                (v0 * cols) as u64,
                (vs * cols) as u64,
            ));
            let writes = lines(
                job.output_base,
                (v0 * rows + r0) as u64 * 4,
                (rs.max(1) * vs.max(1)) as u64 * 4,
            );
            units.push(CoreTask::Stream {
                ops: (macs as f64 * cfg.ops_per_mac) as u64,
                reads,
                writes,
            });
            v0 += vs;
        }
        r0 += rs;
    }
    units
}

/// Decides the partition width for a job: unitary-fitting matrices (e.g.
/// the 8×8 DCT) use the full fabric, everything else SVD partitions.
pub fn partition_width(job: &MvmJob, cfg: &TaskGenConfig) -> usize {
    if job.orthogonal
        && job.rows == job.cols
        && job.rows <= cfg.unitary_partition
        && job.rows > cfg.svd_partition
    {
        cfg.unitary_partition
    } else {
        cfg.svd_partition
    }
}

/// The three phases of one offload chunk.
#[derive(Debug)]
struct OffloadChunk {
    /// Operand gathering.
    read: CoreTask,
    /// The control-unit request (with local fallback).
    request: CoreTask,
    /// Partial-sum accumulation + result stores.
    epilogue: CoreTask,
}

/// Per-core phase buckets used to order reads before requests.
#[derive(Debug, Default)]
struct OffloadPhases {
    reads: Vec<CoreTask>,
    requests: Vec<CoreTask>,
    epilogues: Vec<CoreTask>,
}

/// An offload chunk: reads inputs, fires the request (with local
/// fallback), accumulates partials, writes outputs.
fn split_offload_chunks(job: &MvmJob, cfg: &TaskGenConfig) -> Vec<OffloadChunk> {
    let n = partition_width(job, cfg);
    let (rows, cols, nvec) = (job.rows, job.cols, job.vector_count);
    let (br, bc) = job.block_grid(n);

    // Row strips sized so configs per request stay under the cap.
    let strips_per_req = (cfg.max_configs_per_request / bc as u64).clamp(1, br as u64) as usize;
    let vecs_per_req = cfg.max_vectors_per_request.min(nvec.max(1));

    let mut chunks = Vec::new();
    let mut s0 = 0usize;
    while s0 < br {
        let sn = strips_per_req.min(br - s0);
        let mut v0 = 0usize;
        while v0 < nvec {
            let vs = vecs_per_req.min(nvec - v0);
            let configs = (sn * bc) as u64;
            let row_lo = s0 * n;
            let row_hi = ((s0 + sn) * n).min(rows);
            let macs = ((row_hi - row_lo) * cols * vs) as u64;

            // 1. Read the inputs this node will modulate.
            let reads = lines(job.input_base, (v0 * cols) as u64, (vs * cols) as u64);
            // 2. Partial-sum accumulation + result stores.
            let partial_adds = if bc > 1 {
                (sn * n * (bc - 1) * vs) as u64
            } else {
                0
            };
            let writes = lines(
                job.output_base,
                (v0 * rows + row_lo) as u64 * 4,
                ((row_hi - row_lo).max(1) * vs) as u64 * 4,
            );
            // Fallback: the same work done locally.
            let mut fb_reads = lines(
                job.weight_base,
                (row_lo * cols) as u64,
                ((row_hi - row_lo) * cols) as u64,
            );
            fb_reads.extend(reads.clone());
            let fallback = vec![CoreTask::Stream {
                ops: (macs as f64 * cfg.ops_per_mac) as u64,
                reads: fb_reads,
                writes: writes.clone(),
            }];

            chunks.push(OffloadChunk {
                read: CoreTask::Stream {
                    ops: 0,
                    reads,
                    writes: Vec::new(),
                },
                request: CoreTask::External {
                    payload: offload_payload(configs, vs as u64, n as u64, macs),
                    fallback,
                },
                // Partial accumulation is a streaming vector add: ~1 op
                // per accumulated element on a SIMD core.
                epilogue: CoreTask::Stream {
                    ops: partial_adds,
                    reads: Vec::new(),
                    writes,
                },
            });
            v0 += vs;
        }
        s0 += sn;
    }
    chunks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blur::ImageBlur;
    use crate::jpeg::Jpeg;
    use crate::rotation::Rotation3d;

    fn sys() -> SystemConfig {
        SystemConfig::paper()
    }

    #[test]
    fn local_units_cover_all_macs() {
        let b = ImageBlur::small();
        let cfg = TaskGenConfig::default();
        let total_stream_ops: u64 = b
            .jobs()
            .iter()
            .flat_map(|j| split_local_units(j, &cfg))
            .map(|t| match t {
                CoreTask::Stream { ops, .. } => ops,
                _ => 0,
            })
            .sum();
        let expected = (b.total_macs() as f64 * cfg.ops_per_mac) as u64;
        let ratio = total_stream_ops as f64 / expected as f64;
        assert!(
            (0.99..1.01).contains(&ratio),
            "{total_stream_ops} vs {expected}"
        );
    }

    #[test]
    fn generate_local_produces_tasks_for_every_core() {
        let b = ImageBlur::small();
        let qs = generate(&b, &sys(), ExecMode::Local, &TaskGenConfig::default());
        assert_eq!(qs.len(), 64);
        // Barriers everywhere, work somewhere.
        assert!(qs
            .iter()
            .all(|q| q.iter().any(|t| matches!(t, CoreTask::Barrier { .. }))));
        assert!(qs
            .iter()
            .any(|q| q.iter().any(|t| matches!(t, CoreTask::Stream { .. }))));
    }

    #[test]
    fn offload_requests_carry_fallback() {
        let b = Rotation3d::small();
        let qs = generate(&b, &sys(), ExecMode::Offload, &TaskGenConfig::default());
        let externals: Vec<&CoreTask> = qs
            .iter()
            .flatten()
            .filter(|t| matches!(t, CoreTask::External { .. }))
            .collect();
        assert_eq!(externals.len(), 1, "one small job → one request");
        if let CoreTask::External { payload, fallback } = externals[0] {
            assert_eq!(payload[0], 1); // 4×4 on a 4-partition: one config
            assert_eq!(payload[2], 4);
            assert!(!fallback.is_empty());
        }
    }

    #[test]
    fn jpeg_uses_full_fabric_unitary() {
        let j = Jpeg::small();
        let cfg = TaskGenConfig::default();
        assert_eq!(partition_width(&j.jobs()[0], &cfg), 8);
        let b = ImageBlur::small();
        assert_eq!(partition_width(&b.jobs()[0], &cfg), 4);
    }

    #[test]
    fn waves_get_distinct_barriers() {
        let j = Jpeg::small();
        let qs = generate(&j, &sys(), ExecMode::Offload, &TaskGenConfig::default());
        let barrier_ids: std::collections::HashSet<u32> = qs[0]
            .iter()
            .filter_map(|t| match t {
                CoreTask::Barrier { id } => Some(*id),
                _ => None,
            })
            .collect();
        assert!(barrier_ids.len() >= 2, "two waves need two barriers");
    }

    #[test]
    fn lines_helper_is_line_granular() {
        let ls = lines(0x1000, 10, 100);
        assert_eq!(ls[0], 0x1000);
        assert!(ls.iter().all(|a| a % 64 == 0));
        assert_eq!(ls.len(), 2); // bytes 10..110 touch lines 0 and 1
        assert!(lines(0, 0, 0).is_empty());
    }

    #[test]
    fn offload_configs_capped() {
        let b = crate::fc::Vgg16Fc::paper();
        let cfg = TaskGenConfig::default();
        for chunk in split_offload_chunks(&b.jobs()[0], &cfg) {
            if let CoreTask::External { payload, .. } = chunk.request {
                assert!(payload[0] <= cfg.max_configs_per_request);
            }
        }
    }
}

// JSON bridge (canonical serialized form; field names feed sweep job
// hashes).
flumen_sim::json_struct!(TaskGenConfig {
    ops_per_mac,
    unit_macs,
    max_configs_per_request,
    max_vectors_per_request,
    svd_partition,
    unitary_partition,
});
