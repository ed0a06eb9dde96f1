//! Bit-identity properties of the dense kernels.
//!
//! The optimized matmul/mul_vec paths (`matmul`, `matmul_into`,
//! `mul_vec_into`) are only allowed to rearrange *memory
//! traffic*, never the floating-point fold: every output element must be
//! the ascending-`k` sum `((0 + a₀b₀) + a₁b₁) + …` with zero `A`-elements
//! skipped, exactly as the seed's triple loop computed it. These tests pin
//! that down to the bit level (`f64::to_bits`, not approximate equality)
//! against naive references reimplemented here, on random square and
//! rectangular shapes from 1 to 16, on the adversarial sizes 31/127/129,
//! and on denormal/near-overflow inputs — so the golden-grid results can
//! never drift through a kernel "optimization".

use flumen_linalg::{CMat, RMat, C64};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn dim() -> impl Strategy<Value = usize> {
    1usize..17
}

/// Small shapes plus the adversarial ones: 1, odd, power-of-two ± 1.
/// (The vendored proptest stand-in has no `prop_oneof`, so this is a
/// hand-rolled weighted strategy.)
struct AdversarialDim;

impl Strategy for AdversarialDim {
    type Value = usize;
    fn generate(&self, rng: &mut proptest::TestRng) -> usize {
        match rng.gen_range(0u32..7) {
            0 => 31,
            1 => 127,
            2 => 129,
            _ => rng.gen_range(1usize..17),
        }
    }
}

/// Random complex matrix; with `zeros`, a sprinkling of exact zeros so
/// the zero-`A` skip path is exercised.
fn cmat_from_seed(rows: usize, cols: usize, seed: u32, zeros: bool) -> CMat {
    let mut rng = StdRng::seed_from_u64(seed as u64);
    CMat::from_fn(rows, cols, |_, _| {
        if zeros && rng.gen_bool(0.15) {
            C64::ZERO
        } else {
            C64::new(rng.gen_range(-2.0..2.0), rng.gen_range(-2.0..2.0))
        }
    })
}

fn rmat_from_seed(rows: usize, cols: usize, seed: u32) -> RMat {
    let mut rng = StdRng::seed_from_u64(seed as u64);
    RMat::from_fn(rows, cols, |_, _| {
        if rng.gen_bool(0.15) {
            0.0
        } else {
            rng.gen_range(-2.0..2.0)
        }
    })
}

/// The seed's `CMat` kernel: k-outer, indexed writes, zero-`A` skip.
fn naive_cmatmul(a: &CMat, b: &CMat) -> CMat {
    let mut out = CMat::zeros(a.rows(), b.cols());
    for r in 0..a.rows() {
        for k in 0..a.cols() {
            let av = a[(r, k)];
            if av == C64::ZERO {
                continue;
            }
            for c in 0..b.cols() {
                let t = out[(r, c)] + av * b[(k, c)];
                out[(r, c)] = t;
            }
        }
    }
    out
}

/// The seed's `RMat` kernel.
fn naive_rmatmul(a: &RMat, b: &RMat) -> RMat {
    let mut out = RMat::zeros(a.rows(), b.cols());
    for r in 0..a.rows() {
        for k in 0..a.cols() {
            let av = a[(r, k)];
            if av == 0.0 {
                continue;
            }
            for c in 0..b.cols() {
                let t = out[(r, c)] + av * b[(k, c)];
                out[(r, c)] = t;
            }
        }
    }
    out
}

/// Left-to-right fold per row, the pinned `mul_vec` summation order.
fn naive_cmul_vec(a: &CMat, x: &[C64]) -> Vec<C64> {
    (0..a.rows())
        .map(|r| {
            let mut acc = C64::ZERO;
            for c in 0..a.cols() {
                acc += a[(r, c)] * x[c];
            }
            acc
        })
        .collect()
}

fn cmats_bit_identical(a: &CMat, b: &CMat) -> bool {
    if a.rows() != b.rows() || a.cols() != b.cols() {
        return false;
    }
    (0..a.rows()).all(|r| {
        (0..a.cols()).all(|c| {
            a[(r, c)].re.to_bits() == b[(r, c)].re.to_bits()
                && a[(r, c)].im.to_bits() == b[(r, c)].im.to_bits()
        })
    })
}

fn rmats_bit_identical(a: &RMat, b: &RMat) -> bool {
    if a.rows() != b.rows() || a.cols() != b.cols() {
        return false;
    }
    (0..a.rows()).all(|r| (0..a.cols()).all(|c| a[(r, c)].to_bits() == b[(r, c)].to_bits()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn cmat_matmul_bit_identical_to_naive(
        (m, k, n) in (dim(), dim(), dim()), s1 in any::<u32>(), s2 in any::<u32>()
    ) {
        let a = cmat_from_seed(m, k, s1, true);
        let b = cmat_from_seed(k, n, s2, true);
        let reference = naive_cmatmul(&a, &b);
        prop_assert!(cmats_bit_identical(&reference, &a.matmul(&b)));
    }

    #[test]
    fn cmat_matmul_into_bit_identical_and_reusable(
        (m, k, n) in (dim(), dim(), dim()), s1 in any::<u32>(), s2 in any::<u32>()
    ) {
        let a = cmat_from_seed(m, k, s1, true);
        let b = cmat_from_seed(k, n, s2, true);
        let reference = naive_cmatmul(&a, &b);
        // Start from a dirty buffer: matmul_into must fully overwrite it.
        let mut out = CMat::from_fn(m, n, |_, _| C64::new(7.0, -7.0));
        a.matmul_into(&b, &mut out);
        prop_assert!(cmats_bit_identical(&reference, &out));
        // Reusing the buffer a second time is just as clean.
        a.matmul_into(&b, &mut out);
        prop_assert!(cmats_bit_identical(&reference, &out));
    }

    #[test]
    fn rmat_matmul_bit_identical_to_naive(
        (m, k, n) in (dim(), dim(), dim()), s1 in any::<u32>(), s2 in any::<u32>()
    ) {
        let a = rmat_from_seed(m, k, s1);
        let b = rmat_from_seed(k, n, s2);
        let reference = naive_rmatmul(&a, &b);
        prop_assert!(rmats_bit_identical(&reference, &a.matmul(&b)));
        let mut out = RMat::from_fn(m, n, |_, _| 42.0);
        a.matmul_into(&b, &mut out);
        prop_assert!(rmats_bit_identical(&reference, &out));
    }

    #[test]
    fn cmat_mul_vec_pins_summation_order(
        (m, k) in (dim(), dim()), s1 in any::<u32>(), s2 in any::<u32>()
    ) {
        let a = cmat_from_seed(m, k, s1, true);
        let mut rng = StdRng::seed_from_u64(s2 as u64);
        let x: Vec<C64> = (0..k)
            .map(|_| C64::new(rng.gen_range(-2.0..2.0), rng.gen_range(-2.0..2.0)))
            .collect();
        let reference = naive_cmul_vec(&a, &x);
        let via_vec = a.mul_vec(&x);
        let mut via_into = vec![C64::new(9.0, 9.0); m];
        a.mul_vec_into(&x, &mut via_into);
        for r in 0..m {
            prop_assert_eq!(reference[r].re.to_bits(), via_vec[r].re.to_bits());
            prop_assert_eq!(reference[r].im.to_bits(), via_vec[r].im.to_bits());
            prop_assert_eq!(reference[r].re.to_bits(), via_into[r].re.to_bits());
            prop_assert_eq!(reference[r].im.to_bits(), via_into[r].im.to_bits());
        }
    }
}

proptest! {
    // The adversarial dims reach n=129 (≈2·129³ FLAM per case), so keep
    // the case count moderate; the shapes are what matter here.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn cmat_matmul_adversarial_dims_bit_identical(
        (m, k, n) in (AdversarialDim, AdversarialDim, AdversarialDim),
        s1 in any::<u32>(),
        s2 in any::<u32>()
    ) {
        let a = cmat_from_seed(m, k, s1, true);
        let b = cmat_from_seed(k, n, s2, true);
        let reference = naive_cmatmul(&a, &b);
        prop_assert!(cmats_bit_identical(&reference, &a.matmul(&b)));
        let mut out = CMat::from_fn(m, n, |_, _| C64::new(7.0, -7.0));
        a.matmul_into(&b, &mut out);
        prop_assert!(cmats_bit_identical(&reference, &out));
    }

    /// An MVM is a 1-column matmul: for zero-free `A` (so the zero-skip
    /// never fires) the matmul of a single column bit-equals `mul_vec` /
    /// `mul_vec_into` — the MVM and matmul variants share one
    /// accumulation order.
    #[test]
    fn mvm_is_one_column_matmul(
        (m, k) in (AdversarialDim, AdversarialDim), s1 in any::<u32>(), s2 in any::<u32>()
    ) {
        let a = cmat_from_seed(m, k, s1, false);
        let xm = cmat_from_seed(k, 1, s2, false);
        let x: Vec<C64> = (0..k).map(|i| xm[(i, 0)]).collect();
        let via_matmul = a.matmul(&xm);
        let via_vec = a.mul_vec(&x);
        let mut via_into = vec![C64::new(9.0, 9.0); m];
        a.mul_vec_into(&x, &mut via_into);
        for r in 0..m {
            prop_assert_eq!(via_matmul[(r, 0)].re.to_bits(), via_vec[r].re.to_bits());
            prop_assert_eq!(via_matmul[(r, 0)].im.to_bits(), via_vec[r].im.to_bits());
            prop_assert_eq!(via_matmul[(r, 0)].re.to_bits(), via_into[r].re.to_bits());
            prop_assert_eq!(via_matmul[(r, 0)].im.to_bits(), via_into[r].im.to_bits());
        }
    }
}

/// Denormal and near-overflow magnitudes mixed into one product: the
/// kernel must still match the naive reference bit-for-bit (the
/// reference makes no finiteness assumptions).
#[test]
fn extreme_magnitude_inputs_stay_bit_exact() {
    let vals = [
        0.0,
        -0.0,
        f64::MIN_POSITIVE,           // smallest normal
        f64::MIN_POSITIVE / 1024.0,  // denormal
        -f64::MIN_POSITIVE / 4096.0, // denormal, negative
        1.0e308,                     // near overflow
        -1.0e308,
        1.0e-300,
        3.5,
        -0.125,
    ];
    for n in [1usize, 2, 5, 8, 13] {
        let a = CMat::from_fn(n, n, |r, c| {
            C64::new(
                vals[(r * 3 + c) % vals.len()],
                vals[(r + c * 5) % vals.len()],
            )
        });
        let b = CMat::from_fn(n, n, |r, c| {
            C64::new(
                vals[(r * 7 + c + 1) % vals.len()],
                vals[(r + c + 2) % vals.len()],
            )
        });
        assert!(
            cmats_bit_identical(&naive_cmatmul(&a, &b), &a.matmul(&b)),
            "n={n}"
        );
    }
}
