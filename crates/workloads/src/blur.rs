//! Image Blur benchmark (paper §4.2): a 3×3 Gaussian kernel over a
//! 256×256 24-bit colour image, ≈1.7 M MACs.
//!
//! The kernel weights are implemented in the MZIM and receptive-field
//! patches stream as the optical inputs (convolution organization of
//! paper Fig. 7): one job per colour channel with a stationary 1×9 kernel
//! matrix and H·W patch vectors.

use crate::data::Image;
use crate::jobs::{Benchmark, MvmJob, Operands};
use flumen_linalg::RMat;

/// The 3×3 Gaussian blur kernel, normalized.
pub const GAUSSIAN_3X3: [f64; 9] = [
    1.0 / 16.0,
    2.0 / 16.0,
    1.0 / 16.0,
    2.0 / 16.0,
    4.0 / 16.0,
    2.0 / 16.0,
    1.0 / 16.0,
    2.0 / 16.0,
    1.0 / 16.0,
];

/// The Image Blur benchmark.
#[derive(Debug)]
pub struct ImageBlur {
    h: usize,
    w: usize,
    seed: u64,
    jobs: Vec<MvmJob>,
}

impl ImageBlur {
    /// The paper's configuration: 256×256×3.
    pub fn paper() -> Self {
        Self::with_size(256, 256, 0xB10B)
    }

    /// A reduced instance for fast tests.
    pub fn small() -> Self {
        Self::with_size(16, 16, 0xB10B)
    }

    /// Builds the benchmark for an `h×w` RGB image.
    pub fn with_size(h: usize, w: usize, seed: u64) -> Self {
        let jobs = (0..3)
            .map(|c| MvmJob {
                id: c,
                wave: 0,
                rows: 1,
                cols: 9,
                vector_count: h * w,
                orthogonal: false,
                weight_base: 0x1000_0000,
                input_base: 0x2000_0000 + (c * h * w * 16) as u64,
                output_base: 0x3000_0000 + (c * h * w * 4) as u64,
            })
            .collect();
        ImageBlur { h, w, seed, jobs }
    }

    /// The input image, generated from the seed.
    pub fn image(&self) -> Image {
        Image::synthetic(self.h, self.w, 3, self.seed)
    }

    /// The golden blurred output (channel-major).
    pub fn golden_output(&self) -> Vec<f64> {
        self.operands()
            .iter()
            .flat_map(Operands::golden)
            .map(|out| out[0])
            .collect()
    }
}

impl Benchmark for ImageBlur {
    fn name(&self) -> &'static str {
        "image_blur"
    }

    fn jobs(&self) -> &[MvmJob] {
        &self.jobs
    }

    fn operands(&self) -> Vec<Operands> {
        let (h, w) = (self.h, self.w);
        let image = self.image();
        let kernel = RMat::from_rows(1, 9, GAUSSIAN_3X3.to_vec()).expect("9 weights");
        (0..3)
            .map(|c| {
                let mut vectors = Vec::with_capacity(h * w);
                for y in 0..h {
                    for x in 0..w {
                        // Raveled 3×3 receptive field, zero padded.
                        let mut patch = Vec::with_capacity(9);
                        for ky in -1isize..=1 {
                            for kx in -1isize..=1 {
                                patch.push(image.get_padded(y as isize + ky, x as isize + kx, c));
                            }
                        }
                        vectors.push(patch);
                    }
                }
                Operands {
                    matrix: kernel.clone(),
                    vectors,
                }
            })
            .collect()
    }

    fn epilogue_ops(&self) -> u64 {
        // Clamp + store per output pixel.
        (self.h * self.w * 3) as u64
    }

    fn verify(&self, results: &[Vec<Vec<f64>>], tol: f64) -> bool {
        if results.len() != self.jobs.len() {
            return false;
        }
        let golden = self.golden_output();
        let hw = self.h * self.w;
        for (c, res) in results.iter().enumerate() {
            if res.len() != hw {
                return false;
            }
            for (i, out) in res.iter().enumerate() {
                if out.len() != 1 || (out[0] - golden[c * hw + i]).abs() > tol {
                    return false;
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
    fn paper_mac_count_matches() {
        // 256 × 256 × 3 × 9 ≈ 1.77 M MACs (paper: ~1.7 M).
        let b = ImageBlur::paper();
        assert_eq!(b.total_macs(), 256 * 256 * 3 * 9);
    }

    #[test]
    fn jobs_reproduce_golden() {
        let b = ImageBlur::small();
        let results: Vec<_> = b.operands().iter().map(Operands::golden).collect();
        assert!(b.verify(&results, 1e-12));
    }

    #[test]
    fn verify_rejects_corruption() {
        let b = ImageBlur::small();
        let mut results: Vec<_> = b.operands().iter().map(Operands::golden).collect();
        results[0][0][0] += 0.5;
        assert!(!b.verify(&results, 1e-6));
    }

    #[test]
    fn blur_smooths_the_image() {
        // Total variation of the blurred image must not exceed the input's.
        let b = ImageBlur::small();
        let (h, w) = (16usize, 16usize);
        let tv = |f: &dyn Fn(usize, usize) -> f64| -> f64 {
            let mut t = 0.0;
            for y in 0..h {
                for x in 1..w {
                    t += (f(y, x) - f(y, x - 1)).abs();
                }
            }
            t
        };
        let img = b.image();
        let tv_in = tv(&|y, x| img.get(y, x, 0));
        let g = b.golden_output();
        let tv_out = tv(&|y, x| g[y * w + x]);
        assert!(tv_out < tv_in);
    }

    #[test]
    fn kernel_is_normalized() {
        assert!((GAUSSIAN_3X3.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn block_structure_has_partial_sums() {
        // 1×9 kernel on a 4-input partition: 1 row-strip × 3 column blocks
        // → partial sums required (paper: blur accumulates partials).
        let b = ImageBlur::small();
        assert!(b.jobs()[0].partial_sum_adds(4) > 0);
    }
}
