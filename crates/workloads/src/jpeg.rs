//! JPEG benchmark (paper §4.2): compression of a 256×384 24-bit image —
//! 1536 8×8 2-D DCTs (≈1.6 M MACs) plus core-side quantization, zigzag
//! and run-length encoding.
//!
//! A 2-D DCT factors as `C = D·B·Dᵀ`: two matrix passes per block. The
//! orthonormal 8×8 DCT matrix maps onto the **full 8-input unitary MZIM**
//! (no Σ attenuation needed — paper §5.4.1 makes exactly this point), and
//! the second pass depends on the first, giving a two-wave job graph.

use crate::data::Image;
use crate::jobs::{vectors_match, Benchmark, MvmJob, Operands};
use flumen_linalg::RMat;

/// Builds the orthonormal 8×8 DCT-II matrix.
pub fn dct8_matrix() -> RMat {
    let n = 8usize;
    RMat::from_fn(n, n, |k, i| {
        let scale = if k == 0 {
            (1.0 / n as f64).sqrt()
        } else {
            (2.0 / n as f64).sqrt()
        };
        scale * ((std::f64::consts::PI / n as f64) * (i as f64 + 0.5) * k as f64).cos()
    })
}

/// The JPEG compression benchmark (luma-plane DCT stage).
#[derive(Debug)]
pub struct Jpeg {
    h: usize,
    w: usize,
    seed: u64,
    jobs: Vec<MvmJob>,
}

impl Jpeg {
    /// The paper's configuration: 256×384 → 1536 blocks.
    pub fn paper() -> Self {
        Self::with_size(256, 384, 0x77E6)
    }

    /// A reduced instance for fast tests.
    pub fn small() -> Self {
        Self::with_size(16, 24, 0x77E6)
    }

    /// Builds the benchmark for an `h×w` image (both multiples of 8).
    ///
    /// # Panics
    ///
    /// Panics unless `h` and `w` are multiples of 8.
    pub fn with_size(h: usize, w: usize, seed: u64) -> Self {
        assert!(
            h.is_multiple_of(8) && w.is_multiple_of(8),
            "JPEG needs 8-aligned dimensions"
        );
        let blocks = (h / 8) * (w / 8);
        // Wave 0: Y = D·B, inputs the 8 columns of each block. Wave 1:
        // Cᵀ = D·Yᵀ, inputs the 8 rows of each block's Y.
        let dct_pass = |id: usize, input_base: u64, output_base: u64| MvmJob {
            id,
            wave: id,
            rows: 8,
            cols: 8,
            vector_count: blocks * 8,
            orthogonal: true,
            weight_base: 0x1000_0000,
            input_base,
            output_base,
        };
        let jobs = vec![
            dct_pass(0, 0x2000_0000, 0x3000_0000),
            // Consumes wave-0 outputs.
            dct_pass(1, 0x3000_0000, 0x4000_0000),
        ];
        Jpeg { h, w, seed, jobs }
    }

    /// Number of 8×8 blocks (paper: 1536).
    pub fn block_count(&self) -> usize {
        (self.h / 8) * (self.w / 8)
    }

    /// The level-shifted 8×8 pixel blocks of the synthetic image, in
    /// raster order.
    fn pixel_blocks(&self) -> Vec<RMat> {
        let image = Image::synthetic(self.h, self.w, 1, self.seed);
        let mut blocks = Vec::with_capacity(self.block_count());
        for by in 0..self.h / 8 {
            for bx in 0..self.w / 8 {
                blocks.push(RMat::from_fn(8, 8, |r, c| {
                    image.get(by * 8 + r, bx * 8 + c, 0) - 0.5 // level shift
                }));
            }
        }
        blocks
    }

    /// Golden DCT coefficients, one row-major 8×8 matrix per block.
    pub fn golden_coefficients(&self) -> Vec<Vec<f64>> {
        let d = dct8_matrix();
        let dt = d.transpose();
        self.pixel_blocks()
            .iter()
            .map(|block| d.matmul(block).matmul(&dt).as_slice().to_vec())
            .collect()
    }
}

impl Benchmark for Jpeg {
    fn name(&self) -> &'static str {
        "jpeg"
    }

    fn jobs(&self) -> &[MvmJob] {
        &self.jobs
    }

    fn operands(&self) -> Vec<Operands> {
        let d = dct8_matrix();
        let blocks = self.pixel_blocks();
        let mut wave0_vectors = Vec::with_capacity(blocks.len() * 8);
        let mut wave1_vectors = Vec::with_capacity(blocks.len() * 8);
        for block in &blocks {
            let y = d.matmul(block);
            for col in 0..8 {
                wave0_vectors.push(block.col(col));
            }
            for row in 0..8 {
                wave1_vectors.push(y.row(row).to_vec());
            }
        }
        vec![
            Operands {
                matrix: d.clone(),
                vectors: wave0_vectors,
            },
            Operands {
                matrix: d,
                vectors: wave1_vectors,
            },
        ]
    }

    fn epilogue_ops(&self) -> u64 {
        // Quantization (divide+round), zigzag and RLE per coefficient.
        (self.block_count() * 64 * 5) as u64
    }

    fn verify(&self, results: &[Vec<Vec<f64>>], tol: f64) -> bool {
        if results.len() != 2 {
            return false;
        }
        // Wave 0 outputs are the columns of Y = D·B.
        if !vectors_match(&self.operands()[0].golden(), &results[0], tol) {
            return false;
        }
        // Wave 1 outputs are the columns of Cᵀ, i.e. the rows of C.
        let w1 = &results[1];
        if w1.len() != self.block_count() * 8 || w1.iter().any(|out| out.len() != 8) {
            return false;
        }
        for (b, gold) in self.golden_coefficients().iter().enumerate() {
            for row in 0..8 {
                let out = &w1[b * 8 + row];
                for col in 0..8 {
                    if (out[col] - gold[row * 8 + col]).abs() > tol {
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
    fn dct_matrix_is_orthonormal() {
        let d = dct8_matrix();
        let dtd = d.transpose().matmul(&d);
        assert!(dtd.approx_eq(&RMat::identity(8), 1e-12));
    }

    #[test]
    fn paper_block_and_mac_counts() {
        let j = Jpeg::paper();
        assert_eq!(j.block_count(), 1536);
        // Two 8×8×8 passes per block: 1536 × 2 × 512 ≈ 1.57 M MACs.
        assert_eq!(j.total_macs(), 1536 * 2 * 512);
    }

    #[test]
    fn jobs_reproduce_golden() {
        let j = Jpeg::small();
        let results: Vec<_> = j.operands().iter().map(Operands::golden).collect();
        assert!(j.verify(&results, 1e-9));
    }

    #[test]
    fn verify_rejects_corruption() {
        let j = Jpeg::small();
        let mut results: Vec<_> = j.operands().iter().map(Operands::golden).collect();
        results[1][3][2] += 1.0;
        assert!(!j.verify(&results, 1e-6));
    }

    #[test]
    fn verify_rejects_short_wave1_output() {
        let j = Jpeg::small();
        let mut results: Vec<_> = j.operands().iter().map(Operands::golden).collect();
        results[1][0].truncate(5);
        assert!(!j.verify(&results, 1e-6));
    }

    #[test]
    fn verify_rejects_wrong_wave0_output() {
        let j = Jpeg::small();
        let golden: Vec<_> = j.operands().iter().map(Operands::golden).collect();
        let mut off = golden.clone();
        off[0][5][1] += 1.0;
        assert!(!j.verify(&off, 1e-6), "wrong wave-0 value");
        let mut short = golden.clone();
        short[0][2].truncate(7);
        assert!(!j.verify(&short, 1e-6), "short wave-0 output");
        let mut missing = golden;
        missing[0].pop();
        assert!(!j.verify(&missing, 1e-6), "missing wave-0 output");
    }

    #[test]
    fn dc_coefficient_matches_block_mean() {
        // C[0,0] = 8 × mean(levels) for an orthonormal DCT-II.
        let j = Jpeg::small();
        let gold = &j.golden_coefficients()[0];
        // Reconstruct the block mean from the DC coefficient.
        let dc = gold[0];
        assert!(dc.abs() < 8.0, "level-shifted DC must be bounded: {dc}");
    }

    #[test]
    fn two_waves_with_dependency() {
        let j = Jpeg::small();
        assert_eq!(j.jobs()[0].wave, 0);
        assert_eq!(j.jobs()[1].wave, 1);
        // No partial sums: 8×8 fits the 8-input fabric exactly.
        assert_eq!(j.jobs()[0].partial_sum_adds(8), 0);
    }
}
