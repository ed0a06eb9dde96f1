//! ResNet50 Conv3 benchmark (paper §4.2): one 3×3 convolutional layer
//! from the conv3_x group of an 8-bit quantized ResNet50 over a
//! 56×56×128 activation volume with 128 3×3 kernels, ≈8 M
//! multiply/accumulate operations.
//!
//! **Op-count note.** A full-depth 3×3×128 convolution at this shape
//! costs ~460 M MACs; the paper's stated ~8 M corresponds to kernels with
//! a narrow channel extent. We implement a channel-grouped convolution
//! (64 groups, each pairing 2 kernels with 2 input channels), which
//! matches the stated input volume, kernel count and op count while
//! exercising the same im2col-to-MZIM lowering (Fig. 7).

use crate::data::{synthetic_weights, Image};
use crate::jobs::{Benchmark, MvmJob, Operands};
use flumen_linalg::RMat;

/// Kernels (output channels) per group.
const KERNELS_PER_GROUP: usize = 2;
/// Patch length: 3×3 window × 2 input channels.
const PATCH_LEN: usize = 9 * 2;

/// The grouped ResNet50 Conv3 benchmark.
#[derive(Debug)]
pub struct ResnetConv3 {
    h: usize,
    w: usize,
    groups: usize,
    seed: u64,
    jobs: Vec<MvmJob>,
}

impl ResnetConv3 {
    /// The paper's configuration: 56×56×128, 128 kernels.
    pub fn paper() -> Self {
        Self::with_size(56, 56, 64, 0xC3)
    }

    /// A reduced instance for fast tests.
    pub fn small() -> Self {
        Self::with_size(8, 8, 4, 0xC3)
    }

    /// Builds the layer: `groups` groups of (2 kernels × 2 channels),
    /// same-padded 3×3 convolution over an `h×w` spatial extent.
    pub fn with_size(h: usize, w: usize, groups: usize, seed: u64) -> Self {
        let jobs = (0..groups)
            .map(|g| MvmJob {
                id: g,
                wave: 0,
                rows: KERNELS_PER_GROUP,
                cols: PATCH_LEN,
                vector_count: h * w,
                orthogonal: false,
                weight_base: 0x1000_0000 + (g * 1024) as u64,
                input_base: 0x2000_0000 + (g * h * w * 32) as u64,
                output_base: 0x3000_0000 + (g * h * w * 16) as u64,
            })
            .collect();
        ResnetConv3 {
            h,
            w,
            groups,
            seed,
            jobs,
        }
    }

    /// The golden output volume (kernel-major).
    pub fn golden_output(&self) -> Vec<f64> {
        let hw = self.h * self.w;
        let mut golden = vec![0.0; self.groups * KERNELS_PER_GROUP * hw];
        for (g, ops) in self.operands().iter().enumerate() {
            for (i, out) in ops.golden().iter().enumerate() {
                for (k, v) in out.iter().enumerate() {
                    golden[(g * KERNELS_PER_GROUP + k) * hw + i] = *v;
                }
            }
        }
        golden
    }
}

impl Benchmark for ResnetConv3 {
    fn name(&self) -> &'static str {
        "resnet50_conv3"
    }

    fn jobs(&self) -> &[MvmJob] {
        &self.jobs
    }

    fn operands(&self) -> Vec<Operands> {
        let (h, w, seed) = (self.h, self.w, self.seed);
        let input = Image::synthetic(h, w, self.groups * 2, seed);
        (0..self.groups)
            .map(|g| {
                let weights =
                    synthetic_weights(KERNELS_PER_GROUP * PATCH_LEN, 0.3, seed ^ (g as u64 + 1));
                let matrix = RMat::from_rows(KERNELS_PER_GROUP, PATCH_LEN, weights).expect("sized");
                let mut vectors = Vec::with_capacity(h * w);
                for y in 0..h {
                    for x in 0..w {
                        let mut patch = Vec::with_capacity(PATCH_LEN);
                        for ch in 0..2 {
                            let c = g * 2 + ch;
                            for ky in -1isize..=1 {
                                for kx in -1isize..=1 {
                                    patch.push(input.get_padded(
                                        y as isize + ky,
                                        x as isize + kx,
                                        c,
                                    ));
                                }
                            }
                        }
                        vectors.push(patch);
                    }
                }
                Operands { matrix, vectors }
            })
            .collect()
    }

    fn epilogue_ops(&self) -> u64 {
        // ReLU + store per output activation.
        (self.groups * KERNELS_PER_GROUP * self.h * self.w) as u64
    }

    fn verify(&self, results: &[Vec<Vec<f64>>], tol: f64) -> bool {
        if results.len() != self.groups {
            return false;
        }
        let golden = self.golden_output();
        let hw = self.h * self.w;
        for (g, res) in results.iter().enumerate() {
            if res.len() != hw {
                return false;
            }
            for (i, out) in res.iter().enumerate() {
                if out.len() != KERNELS_PER_GROUP {
                    return false;
                }
                for (k, v) in out.iter().enumerate() {
                    let gold = golden[(g * KERNELS_PER_GROUP + k) * hw + i];
                    if (v - gold).abs() > tol {
                        return false;
                    }
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_op_count_is_about_eight_million() {
        // 56 × 56 × 128 kernels × 18-element patches ≈ 7.2 M MACs
        // (the paper rounds to ~8 M).
        let b = ResnetConv3::paper();
        let macs = b.total_macs();
        assert!((7_000_000..9_000_000).contains(&macs), "{macs}");
        assert_eq!(b.jobs().len(), 64);
    }

    #[test]
    fn jobs_reproduce_golden() {
        let b = ResnetConv3::small();
        let results: Vec<_> = b.operands().iter().map(Operands::golden).collect();
        assert!(b.verify(&results, 1e-12));
    }

    #[test]
    fn verify_rejects_corruption() {
        let b = ResnetConv3::small();
        let mut results: Vec<_> = b.operands().iter().map(Operands::golden).collect();
        results[1][5][0] += 0.25;
        assert!(!b.verify(&results, 1e-9));
    }

    #[test]
    fn verify_rejects_wrong_output_lengths() {
        let b = ResnetConv3::small();
        let good: Vec<_> = b.operands().iter().map(Operands::golden).collect();
        // Every per-pixel output emptied leaves nothing to compare.
        let mut emptied = good.clone();
        emptied.iter_mut().flatten().for_each(Vec::clear);
        assert!(!b.verify(&emptied, 1e-9));
        // A third element matching the next group's first kernel is still
        // one element too many.
        let mut long = good.clone();
        long[0][0].push(good[1][0][0]);
        assert!(!b.verify(&long, 1e-9));
    }

    #[test]
    fn high_reuse_many_vectors_per_kernel() {
        // The paper credits Conv3's speedup to kernel-weight reuse: many
        // receptive fields stream through one configured matrix.
        let b = ResnetConv3::small();
        assert!(b.jobs()[0].vector_count >= 64);
    }
}
