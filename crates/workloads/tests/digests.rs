//! Pinned digests of what the benchmarks generate.
//!
//! Two things are pinned for every benchmark at both sizes: the operand
//! values `Benchmark::operands()` generates (matrix, then vectors, per
//! job, as `f64::to_bits`) and the task lists `taskgen::generate` builds
//! from the job shapes. Each is hashed with FNV-1a over 64-bit
//! little-endian words and compared with a recorded constant; a mismatch
//! means a synthetic value or a task moved.

use flumen_linalg::RMat;
use flumen_system::{CoreTask, SystemConfig};
use flumen_workloads::taskgen::{generate, ExecMode, TaskGenConfig};
use flumen_workloads::{paper_benchmarks, small_benchmarks, Benchmark};

/// `(size, benchmark, operand digest, local task digest, offload task
/// digest)`.
#[rustfmt::skip]
const PINNED: [(&str, &str, u64, u64, u64); 10] = [
    ("small", "image_blur",     0x0d8dcb95c499c54f, 0x8f1c94db35d7ebd1, 0x60e97200293ba3d7),
    ("small", "vgg16_fc",       0x8e16434a07a09453, 0x7e65a266b1ac6948, 0x34113c7234b5c97c),
    ("small", "resnet50_conv3", 0xa3dc67138df74f70, 0x25a4a022f9c6b455, 0xdf4d1b71678718c5),
    ("small", "jpeg",           0xdbc6508931173561, 0x17dcca6b97493e9d, 0x41ae5bfd7bf0bcd5),
    ("small", "rotation_3d",    0x92789699bbececbe, 0x2ca97fa99563c8cd, 0x94bc6aa67b236b95),
    ("paper", "image_blur",     0xafcb3d918968c91d, 0x7cad56325b0b8e81, 0x299a9fbbd0232905),
    ("paper", "vgg16_fc",       0x56a9c693a83142a0, 0x565cf05a58db7be1, 0x9f0d31e713d8972a),
    ("paper", "resnet50_conv3", 0xa45b86637eb484b7, 0xc92ae745516bf49b, 0x2d55482d6bed875d),
    ("paper", "jpeg",           0xfc713e1bb6af8de4, 0x94ca660347625d05, 0x5b19165f9d3a0d35),
    ("paper", "rotation_3d",    0x1016949fe350db28, 0x5d6a3d23c728c5bb, 0xf98ed0d9ef6d0aa7),
];

/// Every benchmark at both sizes, in `PINNED` order.
fn all_benchmarks() -> Vec<(&'static str, Box<dyn Benchmark>)> {
    let small = small_benchmarks().into_iter().map(|b| ("small", b));
    let paper = paper_benchmarks().into_iter().map(|b| ("paper", b));
    small.chain(paper).collect()
}

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// A length-prefixed word list.
    fn words(&mut self, ws: &[u64]) {
        self.word(ws.len() as u64);
        for &w in ws {
            self.word(w);
        }
    }

    /// One task: a variant tag, then its fields in declaration order.
    fn task(&mut self, t: &CoreTask) {
        match t {
            CoreTask::Compute { ops } => {
                self.word(0);
                self.word(*ops);
            }
            CoreTask::Stream { ops, reads, writes } => {
                self.word(1);
                self.word(*ops);
                self.words(reads);
                self.words(writes);
            }
            CoreTask::NetRequest {
                dst_chiplet,
                req_bits,
                reply_bits,
                server_cycles,
            } => {
                self.word(2);
                self.word(*dst_chiplet as u64);
                self.word(u64::from(*req_bits));
                self.word(u64::from(*reply_bits));
                self.word(*server_cycles);
            }
            CoreTask::NetSend { dst_chiplets, bits } => {
                self.word(3);
                let dsts: Vec<u64> = dst_chiplets.iter().map(|&c| c as u64).collect();
                self.words(&dsts);
                self.word(u64::from(*bits));
            }
            CoreTask::Barrier { id } => {
                self.word(4);
                self.word(u64::from(*id));
            }
            CoreTask::External { payload, fallback } => {
                self.word(5);
                self.words(payload);
                self.word(fallback.len() as u64);
                for f in fallback {
                    self.task(f);
                }
            }
        }
    }
}

fn operand_digest(b: &dyn Benchmark) -> u64 {
    let mut h = Fnv::new();
    for ops in b.operands() {
        for x in ops.matrix.as_slice() {
            h.word(x.to_bits());
        }
        for x in ops.vectors.iter().flatten() {
            h.word(x.to_bits());
        }
    }
    h.0
}

fn taskgen_digest(b: &dyn Benchmark, mode: ExecMode) -> u64 {
    let tasks = generate(b, &SystemConfig::paper(), mode, &TaskGenConfig::default());
    let mut h = Fnv::new();
    h.word(tasks.len() as u64);
    for queue in &tasks {
        h.word(queue.len() as u64);
        for t in queue {
            h.task(t);
        }
    }
    h.0
}

#[test]
fn operand_digests_are_pinned() {
    let benches = all_benchmarks();
    assert_eq!(benches.len(), PINNED.len());
    for ((size, b), (pin_size, pin_name, want, _, _)) in benches.iter().zip(PINNED) {
        assert_eq!((*size, b.name()), (pin_size, pin_name));
        let got = operand_digest(b.as_ref());
        assert_eq!(got, want, "{size} {}: operand digest {got:#018x}", b.name());
    }
}

#[test]
fn taskgen_digests_are_pinned() {
    let benches = all_benchmarks();
    assert_eq!(benches.len(), PINNED.len());
    for ((size, b), (pin_size, pin_name, _, local, offload)) in benches.iter().zip(PINNED) {
        assert_eq!((*size, b.name()), (pin_size, pin_name));
        for (mode, want) in [(ExecMode::Local, local), (ExecMode::Offload, offload)] {
            let got = taskgen_digest(b.as_ref(), mode);
            assert_eq!(
                got,
                want,
                "{size} {} {mode:?}: task digest {got:#018x}",
                b.name()
            );
        }
    }
}

/// Orthogonality as `taskgen::partition_width` needs it: square, and
/// `MᵀM = I` within 1e-9.
fn is_orthogonal(m: &RMat) -> bool {
    m.rows() == m.cols()
        && m.transpose()
            .matmul(m)
            .approx_eq(&RMat::identity(m.rows()), 1e-9)
}

#[test]
fn orthogonal_flag_matches_operands() {
    for (size, b) in all_benchmarks() {
        let operands = b.operands();
        assert_eq!(operands.len(), b.jobs().len(), "{size} {}", b.name());
        for (job, ops) in b.jobs().iter().zip(&operands) {
            assert_eq!(
                job.orthogonal,
                is_orthogonal(&ops.matrix),
                "{size} {} job {}",
                b.name(),
                job.id
            );
            assert_eq!(
                (ops.matrix.rows(), ops.matrix.cols(), ops.vectors.len()),
                (job.rows, job.cols, job.vector_count),
                "{size} {} job {}: operands disagree with the shape",
                b.name(),
                job.id
            );
        }
    }
}
