//! # flumen-workloads
//!
//! The five benchmark applications of the Flumen evaluation (paper §4.2),
//! each with
//!
//! * a decomposition into offloadable [`MvmJob`]s (matrix × vectors, the
//!   paper's §3.3 computation mapping), held as shapes: dimensions, vector
//!   counts and addresses,
//! * task-graph generation ([`taskgen`]) for the system simulator, in
//!   local (cores-only) and offload (MZIM) flavours, which reads only
//!   those shapes, and
//! * seeded synthetic [`Operands`] plus a **golden** scalar implementation
//!   (exact math on them), generated only when a check asks through
//!   [`Benchmark::operands`] or [`Benchmark::verify`].
//!
//! Constructing a benchmark draws no random numbers and allocates nothing
//! in proportion to its tensors, so a full-system run pays only for the
//! shapes it simulates.
//!
//! | Benchmark | Shape | ≈MACs |
//! |---|---|---|
//! | [`ImageBlur`] | 3×3 Gaussian over 256×256×3 | 1.7 M |
//! | [`Vgg16Fc`] | 1000×4096 FC layer, batch 1 | 4.1 M |
//! | [`ResnetConv3`] | grouped 3×3 conv, 56×56×128 | 7.2 M |
//! | [`Jpeg`] | 1536 8×8 2-D DCTs | 1.6 M |
//! | [`Rotation3d`] | 4×4 transform × 306 vertices | 4.9 K |

// Indexed loops mirror the paper's matrix notation; iterator-chain
// rewrites would obscure the math.
#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod blur;
mod conv;
mod data;
mod fc;
mod jobs;
mod jpeg;
mod rotation;
pub mod taskgen;

pub use blur::{ImageBlur, GAUSSIAN_3X3};
pub use conv::ResnetConv3;
pub use data::{quantize_i8, quantize_u8, synthetic_weights, Image};
pub use fc::Vgg16Fc;
pub use jobs::{results_match_golden, Benchmark, MvmJob, Operands};
pub use jpeg::{dct8_matrix, Jpeg};
pub use rotation::Rotation3d;

/// All five paper benchmarks at full size, in the paper's Fig. 13 order.
pub fn paper_benchmarks() -> Vec<Box<dyn Benchmark>> {
    vec![
        Box::new(ImageBlur::paper()),
        Box::new(Vgg16Fc::paper()),
        Box::new(ResnetConv3::paper()),
        Box::new(Jpeg::paper()),
        Box::new(Rotation3d::paper()),
    ]
}

/// Reduced instances of all five benchmarks for fast tests.
pub fn small_benchmarks() -> Vec<Box<dyn Benchmark>> {
    vec![
        Box::new(ImageBlur::small()),
        Box::new(Vgg16Fc::small()),
        Box::new(ResnetConv3::small()),
        Box::new(Jpeg::small()),
        Box::new(Rotation3d::small()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_benchmarks_reproduce_their_golden() {
        for b in small_benchmarks() {
            let results: Vec<_> = b.operands().iter().map(Operands::golden).collect();
            assert!(b.verify(&results, 1e-9), "{} failed", b.name());
        }
    }

    #[test]
    fn names_are_distinct() {
        let names: std::collections::HashSet<&str> =
            small_benchmarks().iter().map(|b| b.name()).collect();
        assert_eq!(names.len(), 5);
    }

    #[test]
    fn paper_sizes_have_paper_op_counts() {
        let macs: Vec<u64> = paper_benchmarks().iter().map(|b| b.total_macs()).collect();
        assert_eq!(macs[0], 1_769_472); // blur ~1.7 M
        assert_eq!(macs[1], 4_096_000); // vgg ~4.1 M
        assert!((7_000_000..9_000_000).contains(&macs[2])); // conv ~8 M
        assert_eq!(macs[3], 1_572_864); // jpeg ~1.6 M
        assert_eq!(macs[4], 4_896); // rotation
    }
}
