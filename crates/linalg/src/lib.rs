//! # flumen-linalg
//!
//! Complex and real dense linear algebra for the Flumen photonic-interconnect
//! simulator — written from scratch so the workspace has no external
//! linear-algebra dependencies.
//!
//! The crate provides exactly what the photonic stack needs:
//!
//! * [`C64`] — complex numbers for E-field arithmetic.
//! * [`CMat`] / [`RMat`] — dense matrices (transfer matrices / weights).
//! * [`qr`] and [`random_unitary`] — Householder QR and Haar-random
//!   unitaries for testing phase-programming algorithms.
//! * [`svd`], [`spectral_norm`], [`spectral_scale`] — one-sided Jacobi SVD,
//!   used to lower arbitrary weight blocks onto SVD-MZIM circuits
//!   (paper §3.3.1).
//!
//! # Example: lowering a weight matrix onto an SVD circuit
//!
//! ```
//! use flumen_linalg::{spectral_scale, svd, RMat};
//!
//! # fn main() -> Result<(), flumen_linalg::LinalgError> {
//! let weights = RMat::from_fn(8, 8, |r, c| ((r + c) % 5) as f64 / 5.0);
//! let (scaled, norm) = spectral_scale(&weights)?;   // σ_max(scaled) == 1
//! let f = svd(&scaled)?;                            // scaled = U Σ Vᵀ
//! assert!(f.sigma.iter().all(|&s| s <= 1.0 + 1e-9)); // Σ fits the attenuators
//! let x = vec![0.25; 8];
//! let y = f.reconstruct().mul_vec(&x);
//! let y_true = weights.mul_vec(&x);
//! for (a, b) in y.iter().zip(y_true.iter()) {
//!     assert!((a * norm - b).abs() < 1e-9);
//! }
//! # Ok(())
//! # }
//! ```

// Indexed loops mirror the paper's matrix notation; iterator-chain
// rewrites would obscure the math.
#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cmat;
mod complex;
mod error;
mod hash;
mod qr;
mod rmat;
mod svd;

pub use cmat::CMat;
pub use complex::C64;
pub use error::{LinalgError, Result};
pub use hash::sha256_hex;
pub use qr::{qr, random_orthogonal, random_unitary, Qr};
pub use rmat::RMat;
pub use svd::{spectral_norm, spectral_scale, svd, Svd};
