//! Offloadable linear-algebra jobs.
//!
//! Every benchmark reduces its heavy math to a list of [`MvmJob`]s: a
//! stationary matrix times a set of input vectors (paper §3.3). Jobs in a
//! later *wave* depend on results of the previous wave (JPEG's two DCT
//! passes); waves are separated by barriers in the generated task graphs.
//!
//! A job is a *shape*: dimensions, vector count and addresses, which is
//! all task generation and the simulator read. The numbers themselves are
//! [`Operands`], built on request by [`Benchmark::operands`] for checks
//! that need them.

use flumen_linalg::RMat;

/// One matrix-times-many-vectors job, by shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MvmJob {
    /// Job id, unique within a benchmark.
    pub id: usize,
    /// Dependency wave (0 first).
    pub wave: usize,
    /// Rows of the stationary matrix (kernel / weights).
    pub rows: usize,
    /// Columns of the stationary matrix; the length of each input vector.
    pub cols: usize,
    /// Number of input vectors.
    pub vector_count: usize,
    /// Whether the stationary matrix is orthogonal (e.g. the 8×8 DCT), so
    /// it can program the fabric directly as a unitary.
    pub orthogonal: bool,
    /// Base byte address of the weights (8-bit elements).
    pub weight_base: u64,
    /// Base byte address of the inputs (8-bit elements).
    pub input_base: u64,
    /// Base byte address of the outputs (32-bit accumulators).
    pub output_base: u64,
}

impl MvmJob {
    /// Multiply-accumulate count: `rows × cols × vectors`.
    pub fn macs(&self) -> u64 {
        (self.rows * self.cols * self.vector_count) as u64
    }

    /// `(block_rows, block_cols)` when lowered onto an `n`-input fabric
    /// partition (paper Eq. 2).
    pub fn block_grid(&self, n: usize) -> (usize, usize) {
        (self.rows.div_ceil(n), self.cols.div_ceil(n))
    }

    /// Total `n×n` block MVMs needed for all vectors.
    pub fn block_mvms(&self, n: usize) -> u64 {
        let (br, bc) = self.block_grid(n);
        (br * bc * self.vector_count) as u64
    }

    /// Partial-sum additions the cores must perform (paper §3.3.1):
    /// accumulating `block_cols` partial vectors per output row-strip.
    pub fn partial_sum_adds(&self, n: usize) -> u64 {
        let (br, bc) = self.block_grid(n);
        if bc <= 1 {
            return 0;
        }
        (br * n * (bc - 1) * self.vector_count) as u64
    }
}

/// The data of one job: its stationary matrix and input vectors.
#[derive(Debug, Clone, PartialEq)]
pub struct Operands {
    /// The stationary matrix (kernel / weights).
    pub matrix: RMat,
    /// Input vectors, each of length `matrix.cols()`.
    pub vectors: Vec<Vec<f64>>,
}

impl Operands {
    /// Exact results, one output vector per input vector.
    pub fn golden(&self) -> Vec<Vec<f64>> {
        self.vectors
            .iter()
            .map(|v| self.matrix.mul_vec(v))
            .collect()
    }
}

/// A benchmark: named work that decomposes into MVM jobs plus some
/// core-side epilogue (bias, activation, entropy coding, …).
pub trait Benchmark {
    /// Display name.
    fn name(&self) -> &'static str;
    /// The offloadable jobs.
    fn jobs(&self) -> &[MvmJob];
    /// Generates the jobs' operands, one per job in job order. Built
    /// afresh on every call from the benchmark's seed.
    fn operands(&self) -> Vec<Operands>;
    /// Core-side epilogue operations not expressible as MVMs.
    fn epilogue_ops(&self) -> u64 {
        0
    }
    /// Total MACs across jobs.
    fn total_macs(&self) -> u64 {
        self.jobs().iter().map(MvmJob::macs).sum()
    }
    /// Checks that per-job results assemble into the application's golden
    /// output within `tol` (absolute, on the benchmark's natural scale).
    /// Generates the operands to do so.
    fn verify(&self, results: &[Vec<Vec<f64>>], tol: f64) -> bool;
}

/// Reference check helper: compares job results against each job's exact
/// product.
pub fn results_match_golden(operands: &[Operands], results: &[Vec<Vec<f64>>], tol: f64) -> bool {
    operands.len() == results.len()
        && operands
            .iter()
            .zip(results.iter())
            .all(|(ops, res)| vectors_match(&ops.golden(), res, tol))
}

/// Whether `got` has exactly `want`'s shape and every element within `tol`.
pub(crate) fn vectors_match(want: &[Vec<f64>], got: &[Vec<f64>], tol: f64) -> bool {
    want.len() == got.len()
        && want.iter().zip(got.iter()).all(|(w, g)| {
            w.len() == g.len() && w.iter().zip(g.iter()).all(|(a, b)| (a - b).abs() <= tol)
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job() -> MvmJob {
        MvmJob {
            id: 0,
            wave: 0,
            rows: 3,
            cols: 5,
            vector_count: 2,
            orthogonal: false,
            weight_base: 0,
            input_base: 0x1000,
            output_base: 0x2000,
        }
    }

    fn operands() -> Operands {
        Operands {
            matrix: RMat::from_fn(3, 5, |r, c| (r + c) as f64),
            vectors: vec![vec![1.0; 5], vec![0.5; 5]],
        }
    }

    #[test]
    fn macs_count() {
        assert_eq!(job().macs(), 3 * 5 * 2);
    }

    #[test]
    fn block_grid_and_mvms() {
        let j = job();
        assert_eq!(j.block_grid(4), (1, 2));
        assert_eq!(j.block_mvms(4), 4);
        // One row-strip, two column blocks → 1 partial add per output row
        // element per vector: 1 × 4 × 1 × 2 vectors.
        assert_eq!(j.partial_sum_adds(4), 8);
    }

    #[test]
    fn no_partials_when_single_block_column() {
        let j = MvmJob {
            rows: 4,
            cols: 4,
            vector_count: 1,
            ..job()
        };
        assert_eq!(j.partial_sum_adds(4), 0);
    }

    #[test]
    fn golden_matches_manual() {
        let o = operands();
        let g = o.golden();
        assert_eq!(g[0], o.matrix.mul_vec(&[1.0; 5]));
    }

    #[test]
    fn results_checker() {
        let o = operands();
        let good = vec![o.golden()];
        assert!(results_match_golden(std::slice::from_ref(&o), &good, 1e-12));
        let mut bad = good.clone();
        bad[0][0][0] += 1.0;
        assert!(!results_match_golden(std::slice::from_ref(&o), &bad, 1e-12));
    }
}
