//! Numerical execution of benchmark jobs on the photonic circuit model.
//!
//! The system simulator models offload *timing and energy*; this module
//! closes the loop on *correctness*: it lowers each [`MvmJob`] onto `N×N`
//! SVD-MZIM blocks (paper Eqs. 2–3), runs the actual E-field simulation
//! per block, accumulates partial sums like the cores would, and hands
//! back results that can be checked against each benchmark's golden
//! output — ideally exact, and within a few LSBs under the 8-bit analog
//! model.

use flumen_linalg::BlockMatrix;
use flumen_photonics::{AnalogModel, PhotonicsError, SvdCircuit};
use flumen_workloads::{Benchmark, MvmJob};

/// Executes jobs on programmed SVD-MZIM blocks.
#[derive(Debug, Clone)]
pub struct PhotonicExecutor {
    /// Partition width `N` (4 for SVD partitions, 8 for full-fabric
    /// unitary jobs).
    pub n: usize,
    /// Analog precision model.
    pub model: AnalogModel,
}

impl PhotonicExecutor {
    /// An executor with ideal analog behaviour.
    pub fn ideal(n: usize) -> Self {
        PhotonicExecutor {
            n,
            model: AnalogModel::ideal(),
        }
    }

    /// An executor at the paper's 8-bit operating point.
    pub fn eight_bit(n: usize) -> Self {
        PhotonicExecutor {
            n,
            model: AnalogModel::eight_bit(),
        }
    }

    /// Runs one job: programs a circuit per matrix sub-block, streams
    /// every vector through the block grid, and accumulates partials.
    ///
    /// `max_vectors` caps the number of vectors executed (photonic
    /// simulation of every receptive field of a full-size benchmark is
    /// exact but slow; sampling suffices for accuracy checks). `None`
    /// runs all.
    ///
    /// # Errors
    ///
    /// Propagates circuit programming failures.
    pub fn run_job(
        &self,
        job: &MvmJob,
        max_vectors: Option<usize>,
    ) -> Result<Vec<Vec<f64>>, PhotonicsError> {
        let blocks = BlockMatrix::decompose(&job.matrix, self.n);
        let (br, bc) = (blocks.block_rows(), blocks.block_cols());
        let mut circuits = Vec::with_capacity(br * bc);
        for i in 0..br {
            for j in 0..bc {
                let mut c = SvdCircuit::program(blocks.block(i, j))?;
                if !self.model.is_ideal() {
                    c.quantize_phases(&self.model);
                }
                circuits.push(c);
            }
        }
        let limit = max_vectors
            .unwrap_or(job.vectors.len())
            .min(job.vectors.len());
        let mut out = Vec::with_capacity(limit);
        for (vi, vector) in job.vectors.iter().take(limit).enumerate() {
            let y = blocks.mul_vec_via_blocks(vector, |i, j, _, chunk| {
                circuits[i * bc + j].apply_with_model(
                    chunk,
                    &self.model,
                    (vi * br * bc + i * bc + j) as u64,
                )
            });
            out.push(y);
        }
        Ok(out)
    }

    /// Runs every job of a benchmark (optionally vector-sampled) and
    /// returns per-job results suitable for `Benchmark::verify` when run
    /// unsampled.
    ///
    /// # Errors
    ///
    /// Propagates circuit programming failures.
    pub fn run_benchmark(
        &self,
        bench: &dyn Benchmark,
        max_vectors: Option<usize>,
    ) -> Result<Vec<Vec<Vec<f64>>>, PhotonicsError> {
        bench
            .jobs()
            .iter()
            .map(|j| self.run_job(j, max_vectors))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flumen_workloads::{small_benchmarks, Jpeg, Rotation3d};

    #[test]
    fn ideal_executor_reproduces_every_small_benchmark() {
        for bench in small_benchmarks() {
            let n = if bench.name() == "jpeg" { 8 } else { 4 };
            let exec = PhotonicExecutor::ideal(n);
            let results = exec.run_benchmark(bench.as_ref(), None).unwrap();
            assert!(bench.verify(&results, 1e-7), "{} diverged", bench.name());
        }
    }

    #[test]
    fn eight_bit_rotation_within_lsbs() {
        let bench = Rotation3d::small();
        let exec = PhotonicExecutor::eight_bit(4);
        let results = exec.run_benchmark(&bench, None).unwrap();
        // 8-bit analog: a few percent of full scale.
        assert!(
            bench.verify(&results, 0.1),
            "8-bit rotation error too large"
        );
        // But not exact — the analog model must actually perturb values.
        assert!(!bench.verify(&results, 1e-12));
    }

    #[test]
    fn jpeg_uses_full_fabric_exactly() {
        let bench = Jpeg::small();
        let exec = PhotonicExecutor::ideal(8);
        let results = exec.run_benchmark(&bench, None).unwrap();
        assert!(bench.verify(&results, 1e-7));
    }

    #[test]
    fn vector_sampling_caps_work() {
        let bench = Rotation3d::small();
        let exec = PhotonicExecutor::ideal(4);
        let results = exec.run_job(&bench.jobs()[0], Some(5)).unwrap();
        assert_eq!(results.len(), 5);
        let gold = bench.jobs()[0].golden();
        for (r, g) in results.iter().zip(gold.iter()) {
            for (a, b) in r.iter().zip(g.iter()) {
                assert!((a - b).abs() < 1e-8);
            }
        }
    }
}
