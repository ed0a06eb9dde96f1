//! VGG16 FC benchmark (paper §4.2): the FC-1000 layer of an 8-bit
//! quantized VGG16 — a (1000 × 4096) weight matrix times a 4096-element
//! activation vector plus bias, ≈4.1 M MACs.

use crate::data::{quantize_u8, synthetic_weights};
use crate::jobs::{vectors_match, Benchmark, MvmJob, Operands};
use flumen_linalg::RMat;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The VGG16 FC-1000 benchmark.
#[derive(Debug)]
pub struct Vgg16Fc {
    seed: u64,
    job: [MvmJob; 1],
}

impl Vgg16Fc {
    /// The paper's configuration: 1000 × 4096, batch 1.
    pub fn paper() -> Self {
        Self::with_size(1000, 4096, 0xF0C)
    }

    /// A reduced instance for fast tests.
    pub fn small() -> Self {
        Self::with_size(10, 32, 0xF0C)
    }

    /// Builds an `out_dim × in_dim` FC layer with batch 1.
    pub fn with_size(out_dim: usize, in_dim: usize, seed: u64) -> Self {
        Self::with_batch(out_dim, in_dim, 1, seed)
    }

    /// **Extension (beyond the paper):** a batched FC layer. The paper
    /// identifies VGG16-FC as Flumen's weakest benchmark *because* batch-1
    /// inference reuses each weight block exactly once; batching restores
    /// the operand reuse that the WDM compute path thrives on. Used by the
    /// `abl_batch_reuse` study.
    ///
    /// # Panics
    ///
    /// Panics if `batch == 0`.
    pub fn with_batch(out_dim: usize, in_dim: usize, batch: usize, seed: u64) -> Self {
        assert!(batch > 0, "batch must be positive");
        let job = MvmJob {
            id: 0,
            wave: 0,
            rows: out_dim,
            cols: in_dim,
            vector_count: batch,
            orthogonal: false,
            weight_base: 0x1000_0000,
            input_base: 0x2000_0000,
            output_base: 0x3000_0000,
        };
        Vgg16Fc { seed, job: [job] }
    }

    /// The layer's operands and bias, generated from the seed.
    fn generate(&self) -> (Operands, Vec<f64>) {
        let MvmJob {
            rows: out_dim,
            cols: in_dim,
            vector_count: batch,
            ..
        } = self.job[0];
        let weights = synthetic_weights(out_dim * in_dim, 0.25, self.seed);
        let matrix = RMat::from_rows(out_dim, in_dim, weights).expect("sized");
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0xBEEF);
        let vectors: Vec<Vec<f64>> = (0..batch)
            .map(|_| {
                (0..in_dim)
                    .map(|_| quantize_u8(rng.gen_range(0.0..1.0)))
                    .collect()
            })
            .collect();
        let bias: Vec<f64> = (0..out_dim).map(|_| rng.gen_range(-0.1..0.1)).collect();
        (Operands { matrix, vectors }, bias)
    }

    /// The layer's golden output for the first batch element (with bias).
    pub fn golden_output(&self) -> Vec<f64> {
        let (ops, bias) = self.generate();
        with_bias(&ops.matrix.mul_vec(&ops.vectors[0]), &bias)
    }

    /// Batch size.
    pub fn batch(&self) -> usize {
        self.job[0].vector_count
    }
}

fn with_bias(products: &[f64], bias: &[f64]) -> Vec<f64> {
    products
        .iter()
        .zip(bias.iter())
        .map(|(v, b)| v + b)
        .collect()
}

impl Benchmark for Vgg16Fc {
    fn name(&self) -> &'static str {
        "vgg16_fc"
    }

    fn jobs(&self) -> &[MvmJob] {
        &self.job
    }

    fn operands(&self) -> Vec<Operands> {
        vec![self.generate().0]
    }

    fn epilogue_ops(&self) -> u64 {
        // Bias add per output.
        self.job[0].rows as u64
    }

    fn verify(&self, results: &[Vec<Vec<f64>>], tol: f64) -> bool {
        // Every batch element checks against the exact products; the first
        // also checks through the bias against the app's golden output.
        let (ops, bias) = self.generate();
        let exact = ops.golden();
        if results.len() != 1 || !vectors_match(&exact, &results[0], tol) {
            return false;
        }
        let golden = with_bias(&exact[0], &bias);
        results[0][0]
            .iter()
            .zip(bias.iter())
            .zip(golden.iter())
            .all(|((v, b), g)| (v + b - g).abs() <= tol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_mac_count_matches() {
        // 1000 × 4096 ≈ 4.1 M MACs.
        let b = Vgg16Fc::paper();
        assert_eq!(b.total_macs(), 4_096_000);
    }

    #[test]
    fn jobs_reproduce_golden() {
        let b = Vgg16Fc::small();
        let results: Vec<_> = b.operands().iter().map(Operands::golden).collect();
        assert!(b.verify(&results, 1e-12));
    }

    #[test]
    fn verify_rejects_corruption() {
        let b = Vgg16Fc::small();
        let mut results: Vec<_> = b.operands().iter().map(Operands::golden).collect();
        results[0][0][3] += 0.1;
        assert!(!b.verify(&results, 1e-9));
    }

    #[test]
    fn verify_rejects_short_batch_elements() {
        let b = Vgg16Fc::with_batch(10, 32, 3, 0xF0C);
        let mut results: Vec<_> = b.operands().iter().map(Operands::golden).collect();
        assert!(b.verify(&results, 1e-12));
        results[0][1].truncate(3);
        results[0][2].clear();
        assert!(!b.verify(&results, 1e-9));
    }

    #[test]
    fn low_reuse_single_vector() {
        // The paper identifies VGG FC as the lowest-speedup benchmark:
        // a large kernel with a single input vector (no operand reuse).
        let b = Vgg16Fc::small();
        assert_eq!(b.jobs()[0].vector_count, 1);
    }

    #[test]
    fn heavy_partial_sums_on_small_fabric() {
        let b = Vgg16Fc::paper();
        // 4096 columns / 4 = 1024 block columns → deep accumulation.
        let (br, bc) = b.jobs()[0].block_grid(4);
        assert_eq!(br, 250);
        assert_eq!(bc, 1024);
        assert!(b.jobs()[0].partial_sum_adds(4) > 1_000_000);
    }
}
