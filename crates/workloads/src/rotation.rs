//! 3D Rotation benchmark (paper §4.2): a homogeneous 4×4 transform over a
//! 306-vertex wireframe object.
//!
//! The 4×4 rotation matrix maps onto two 4-input SVD sub-MZIMs with no
//! partial-sum accumulation at the cores (paper §5.4.1 credits this for
//! the benchmark's best-in-class energy reduction).

use crate::jobs::{results_match_golden, Benchmark, MvmJob, Operands};
use flumen_linalg::RMat;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The 3D rotation benchmark.
#[derive(Debug)]
pub struct Rotation3d {
    seed: u64,
    job: [MvmJob; 1],
}

impl Rotation3d {
    /// The paper's configuration: 306 vertices.
    pub fn paper() -> Self {
        Self::with_vertices(306, 0x3D)
    }

    /// A reduced instance for fast tests.
    pub fn small() -> Self {
        Self::with_vertices(24, 0x3D)
    }

    /// Builds the benchmark with a seeded wireframe and transform.
    pub fn with_vertices(count: usize, seed: u64) -> Self {
        let job = MvmJob {
            id: 0,
            wave: 0,
            rows: 4,
            cols: 4,
            vector_count: count,
            orthogonal: false,
            weight_base: 0x1000_0000,
            input_base: 0x2000_0000,
            output_base: 0x3000_0000,
        };
        Rotation3d { seed, job: [job] }
    }

    /// Transformed vertices.
    pub fn golden_vertices(&self) -> Vec<Vec<f64>> {
        self.operands()[0].golden()
    }
}

fn random_unit_axis(rng: &mut StdRng) -> (f64, f64, f64) {
    loop {
        let v: (f64, f64, f64) = (
            rng.gen_range(-1.0..1.0),
            rng.gen_range(-1.0..1.0),
            rng.gen_range(-1.0..1.0),
        );
        let n = (v.0 * v.0 + v.1 * v.1 + v.2 * v.2).sqrt();
        if n > 1e-3 {
            return (v.0 / n, v.1 / n, v.2 / n);
        }
    }
}

impl Benchmark for Rotation3d {
    fn name(&self) -> &'static str {
        "rotation_3d"
    }

    fn jobs(&self) -> &[MvmJob] {
        &self.job
    }

    fn operands(&self) -> Vec<Operands> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        // Rotation about an arbitrary axis plus a small translation.
        let (ax, ay, az) = random_unit_axis(&mut rng);
        let angle: f64 = rng.gen_range(0.1..1.5);
        let (s, c) = angle.sin_cos();
        let t = 1.0 - c;
        #[rustfmt::skip]
        let matrix = RMat::from_rows(4, 4, vec![
            t*ax*ax + c,      t*ax*ay - s*az, t*ax*az + s*ay, rng.gen_range(-0.5..0.5),
            t*ax*ay + s*az,   t*ay*ay + c,    t*ay*az - s*ax, rng.gen_range(-0.5..0.5),
            t*ax*az - s*ay,   t*ay*az + s*ax, t*az*az + c,    rng.gen_range(-0.5..0.5),
            0.0,              0.0,            0.0,            1.0,
        ]).expect("16 entries");

        let vectors: Vec<Vec<f64>> = (0..self.job[0].vector_count)
            .map(|_| {
                vec![
                    rng.gen_range(-1.0..1.0),
                    rng.gen_range(-1.0..1.0),
                    rng.gen_range(-1.0..1.0),
                    1.0,
                ]
            })
            .collect();
        vec![Operands { matrix, vectors }]
    }

    fn verify(&self, results: &[Vec<Vec<f64>>], tol: f64) -> bool {
        results_match_golden(&self.operands(), results, tol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_mac_count() {
        let b = Rotation3d::paper();
        assert_eq!(b.total_macs(), 306 * 16);
    }

    #[test]
    fn rotation_preserves_rigid_distance() {
        let b = Rotation3d::paper();
        let (v, g) = (&b.operands()[0].vectors, &b.golden_vertices());
        // Distances between transformed vertex pairs match the originals
        // (rotation + translation is an isometry).
        let d = |a: &[f64], b: &[f64]| -> f64 {
            (0..3).map(|i| (a[i] - b[i]).powi(2)).sum::<f64>().sqrt()
        };
        for k in 1..5 {
            let before = d(&v[0], &v[k]);
            let after = d(&g[0], &g[k]);
            assert!((before - after).abs() < 1e-9);
        }
    }

    #[test]
    fn jobs_reproduce_golden() {
        let b = Rotation3d::small();
        let results: Vec<_> = b.operands().iter().map(Operands::golden).collect();
        assert!(b.verify(&results, 1e-12));
    }

    #[test]
    fn no_partial_sums_on_4_input_partition() {
        // 4×4 matrix in a 4-input partition: single block — the property
        // the paper credits for the benchmark's top energy reduction.
        let b = Rotation3d::paper();
        assert_eq!(b.jobs()[0].partial_sum_adds(4), 0);
        assert_eq!(b.jobs()[0].block_grid(4), (1, 1));
    }

    #[test]
    fn verify_rejects_corruption() {
        let b = Rotation3d::small();
        let mut results: Vec<_> = b.operands().iter().map(Operands::golden).collect();
        results[0][0][1] += 0.01;
        assert!(!b.verify(&results, 1e-9));
    }
}
