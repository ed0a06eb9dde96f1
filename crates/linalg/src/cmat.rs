//! Dense complex matrices (row-major).
//!
//! [`CMat`] is the workhorse type for E-field transfer matrices: MZI 2×2
//! blocks embedded into N×N meshes, unitary communication maps, and the
//! decompositions that program them.

use crate::{LinalgError, Result, C64};
use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

/// A dense, row-major complex matrix.
///
/// # Examples
///
/// ```
/// use flumen_linalg::{C64, CMat};
///
/// let id = CMat::identity(3);
/// let x = CMat::from_fn(3, 3, |r, c| C64::from_re((r * 3 + c) as f64));
/// assert_eq!(&id * &x, x);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CMat {
    rows: usize,
    cols: usize,
    data: Vec<C64>,
}

impl CMat {
    /// Creates an all-zero matrix.
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `cols` is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        CMat {
            rows,
            cols,
            data: vec![C64::ZERO; rows * cols],
        }
    }

    /// Creates the `n×n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = CMat::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = C64::ONE;
        }
        m
    }

    /// Builds a matrix by evaluating `f(row, col)` for every element.
    pub fn from_fn<F: FnMut(usize, usize) -> C64>(rows: usize, cols: usize, mut f: F) -> Self {
        let mut m = CMat::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m[(r, c)] = f(r, c);
            }
        }
        m
    }

    /// Builds a matrix from row-major data.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when `data.len() != rows*cols`.
    pub fn from_rows(rows: usize, cols: usize, data: Vec<C64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LinalgError::DimensionMismatch {
                expected: rows * cols,
                actual: data.len(),
            });
        }
        Ok(CMat { rows, cols, data })
    }

    /// Builds an `n×n` permutation matrix `P` with `P[perm[i], i] = 1`,
    /// i.e. input `i` is routed to output `perm[i]`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotAPermutation`] if `perm` is not a
    /// permutation of `0..n`.
    pub fn permutation(perm: &[usize]) -> Result<Self> {
        let n = perm.len();
        let mut seen = vec![false; n];
        for &p in perm {
            if p >= n || seen[p] {
                return Err(LinalgError::NotAPermutation);
            }
            seen[p] = true;
        }
        let mut m = CMat::zeros(n, n);
        for (i, &p) in perm.iter().enumerate() {
            m[(p, i)] = C64::ONE;
        }
        Ok(m)
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Whether the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrow of the underlying row-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[C64] {
        &self.data
    }

    /// The conjugate transpose (adjoint) `A*`.
    pub fn adjoint(&self) -> CMat {
        CMat::from_fn(self.cols, self.rows, |r, c| self[(c, r)].conj())
    }

    /// The (non-conjugating) transpose.
    pub fn transpose(&self) -> CMat {
        CMat::from_fn(self.cols, self.rows, |r, c| self[(c, r)])
    }

    /// Matrix-vector product `A·x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn mul_vec(&self, x: &[C64]) -> Vec<C64> {
        let mut y = vec![C64::ZERO; self.rows];
        self.mul_vec_into(x, &mut y);
        y
    }

    /// Allocation-free matrix-vector product: `y ← A·x`.
    ///
    /// Each output element is accumulated into a local scalar (ascending
    /// column index) and stored once, so the summation order is the plain
    /// left-to-right fold `((0 + a₀x₀) + a₁x₁) + …` that the kernel
    /// proptests pin down bit-for-bit.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()` or `y.len() != self.rows()`.
    pub fn mul_vec_into(&self, x: &[C64], y: &mut [C64]) {
        assert_eq!(
            x.len(),
            self.cols,
            "vector length {} does not match matrix columns {}",
            x.len(),
            self.cols
        );
        assert_eq!(
            y.len(),
            self.rows,
            "output length {} does not match matrix rows {}",
            y.len(),
            self.rows
        );
        for (r, out) in y.iter_mut().enumerate() {
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            let mut acc = C64::ZERO;
            for (a, b) in row.iter().zip(x.iter()) {
                acc += *a * *b;
            }
            *out = acc;
        }
    }

    /// Matrix product `A·B`.
    ///
    /// Delegates to the allocation-reusing kernel of
    /// [`CMat::matmul_into`]. Each output element is the ascending-`k`
    /// fold `((0 + a₀b₀) + a₁b₁) + …` with zero `A`-elements skipped — the
    /// exact term sequence of the seed's triple loop, so results are
    /// bit-identical to it (proptested in `tests/proptest_kernels.rs`).
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, other: &CMat) -> CMat {
        let mut out = CMat::zeros(self.rows, other.cols);
        self.matmul_into(other, &mut out);
        out
    }

    /// Allocation-free matrix product: `out ← A·B`.
    ///
    /// Streams `B` rows in ascending `k` into each output row (k-outer,
    /// like [`crate::RMat::matmul_into`]), with the same zero-`A` skip as
    /// [`CMat::matmul`].
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch or if `out` is not
    /// `self.rows() × other.cols()`.
    pub fn matmul_into(&self, other: &CMat, out: &mut CMat) {
        assert_eq!(
            self.cols, other.rows,
            "inner dimensions do not match: {}×{} · {}×{}",
            self.rows, self.cols, other.rows, other.cols
        );
        assert_eq!(
            (out.rows, out.cols),
            (self.rows, other.cols),
            "output must be {}×{}, got {}×{}",
            self.rows,
            other.cols,
            out.rows,
            out.cols
        );
        let cols = other.cols;
        for (a_row, o_row) in self
            .data
            .chunks_exact(self.cols)
            .zip(out.data.chunks_exact_mut(cols))
        {
            o_row.fill(C64::ZERO);
            for (b_row, &a) in other.data.chunks_exact(cols).zip(a_row.iter()) {
                if a == C64::ZERO {
                    continue;
                }
                for (o, &b) in o_row.iter_mut().zip(b_row.iter()) {
                    *o += a * b;
                }
            }
        }
    }

    /// Scales every element by the complex scalar `k`.
    pub fn scale(&self, k: C64) -> CMat {
        CMat {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&z| z * k).collect(),
        }
    }

    /// Frobenius norm `sqrt(Σ|a_ij|²)`.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt()
    }

    /// Maximum absolute element `max |a_ij|`.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().map(|z| z.abs()).fold(0.0, f64::max)
    }

    /// Element-wise approximate equality within absolute tolerance `tol`.
    pub fn approx_eq(&self, other: &CMat, tol: f64) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self
                .data
                .iter()
                .zip(other.data.iter())
                .all(|(a, b)| a.approx_eq(*b, tol))
    }

    /// Whether `A* A ≈ I` within tolerance `tol` (columns orthonormal).
    ///
    /// For square matrices this is the unitarity test.
    pub fn is_unitary(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        self.adjoint()
            .matmul(self)
            .approx_eq(&CMat::identity(self.rows), tol)
    }

    /// Left-multiplies `self` in place by a 2×2 block acting on rows
    /// `(m, m+1)`: `self ← T_m(t) · self`. Much cheaper than building the
    /// embedded matrix and calling [`CMat::matmul`].
    pub fn apply_2x2_left(&mut self, m: usize, t: [[C64; 2]; 2]) {
        assert!(m + 1 < self.rows);
        for c in 0..self.cols {
            let a = self[(m, c)];
            let b = self[(m + 1, c)];
            self[(m, c)] = t[0][0] * a + t[0][1] * b;
            self[(m + 1, c)] = t[1][0] * a + t[1][1] * b;
        }
    }

    /// Right-multiplies `self` in place by a 2×2 block acting on columns
    /// `(m, m+1)`: `self ← self · T_m(t)`.
    pub fn apply_2x2_right(&mut self, m: usize, t: [[C64; 2]; 2]) {
        assert!(m + 1 < self.cols);
        for r in 0..self.rows {
            let a = self[(r, m)];
            let b = self[(r, m + 1)];
            self[(r, m)] = a * t[0][0] + b * t[1][0];
            self[(r, m + 1)] = a * t[0][1] + b * t[1][1];
        }
    }

    /// Returns the vector of per-element optical powers `|a_i|²` for a
    /// column vector stored as a slice.
    pub fn powers(v: &[C64]) -> Vec<f64> {
        v.iter().map(|z| z.norm_sqr()).collect()
    }
}

impl Index<(usize, usize)> for CMat {
    type Output = C64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &C64 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for CMat {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut C64 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

impl Add for &CMat {
    type Output = CMat;
    fn add(self, rhs: &CMat) -> CMat {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        CMat {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(rhs.data.iter())
                .map(|(&a, &b)| a + b)
                .collect(),
        }
    }
}

impl Sub for &CMat {
    type Output = CMat;
    fn sub(self, rhs: &CMat) -> CMat {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        CMat {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(rhs.data.iter())
                .map(|(&a, &b)| a - b)
                .collect(),
        }
    }
}

impl Mul for &CMat {
    type Output = CMat;
    fn mul(self, rhs: &CMat) -> CMat {
        self.matmul(rhs)
    }
}

impl fmt::Display for CMat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in 0..self.rows {
            for c in 0..self.cols {
                write!(f, "{:>22}", format!("{:.4}", self[(r, c)]))?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_is_unitary() {
        assert!(CMat::identity(5).is_unitary(1e-12));
    }

    #[test]
    fn zeros_not_unitary() {
        assert!(!CMat::zeros(3, 3).is_unitary(1e-12));
    }

    #[test]
    fn from_rows_dimension_check() {
        assert!(CMat::from_rows(2, 2, vec![C64::ONE; 3]).is_err());
        assert!(CMat::from_rows(2, 2, vec![C64::ONE; 4]).is_ok());
    }

    #[test]
    fn permutation_routes_inputs() {
        let p = CMat::permutation(&[2, 0, 1]).unwrap();
        let x = vec![C64::from_re(1.0), C64::from_re(2.0), C64::from_re(3.0)];
        let y = p.mul_vec(&x);
        // input 0 -> output 2, input 1 -> output 0, input 2 -> output 1
        assert_eq!(y[2], C64::from_re(1.0));
        assert_eq!(y[0], C64::from_re(2.0));
        assert_eq!(y[1], C64::from_re(3.0));
        assert!(p.is_unitary(1e-12));
    }

    #[test]
    fn permutation_rejects_invalid() {
        assert!(CMat::permutation(&[0, 0, 1]).is_err());
        assert!(CMat::permutation(&[0, 3, 1]).is_err());
    }

    #[test]
    fn matmul_identity() {
        let a = CMat::from_fn(3, 4, |r, c| C64::new(r as f64, c as f64));
        assert_eq!(CMat::identity(3).matmul(&a), a);
        assert_eq!(a.matmul(&CMat::identity(4)), a);
    }

    #[test]
    fn matmul_known_product() {
        // [[1, i], [0, 1]] * [[1, 0], [i, 1]] = [[1 + i*i, i], [i, 1]] = [[0, i], [i, 1]]
        let a = CMat::from_rows(2, 2, vec![C64::ONE, C64::I, C64::ZERO, C64::ONE]).unwrap();
        let b = CMat::from_rows(2, 2, vec![C64::ONE, C64::ZERO, C64::I, C64::ONE]).unwrap();
        let p = a.matmul(&b);
        assert!(p[(0, 0)].approx_eq(C64::ZERO, 1e-14));
        assert!(p[(0, 1)].approx_eq(C64::I, 1e-14));
        assert!(p[(1, 0)].approx_eq(C64::I, 1e-14));
        assert!(p[(1, 1)].approx_eq(C64::ONE, 1e-14));
    }

    #[test]
    fn adjoint_involution() {
        let a = CMat::from_fn(3, 2, |r, c| C64::new(r as f64, c as f64 + 1.0));
        assert_eq!(a.adjoint().adjoint(), a);
        assert_eq!(a.adjoint().rows(), 2);
    }

    #[test]
    fn transpose_does_not_conjugate() {
        let a = CMat::from_fn(2, 2, |_, _| C64::I);
        assert_eq!(a.transpose()[(0, 0)], C64::I);
        assert_eq!(a.adjoint()[(0, 0)], -C64::I);
    }

    #[test]
    fn mul_vec_linear() {
        let a = CMat::from_fn(2, 2, |r, c| C64::from_re((r + c) as f64));
        let x = vec![C64::from_re(1.0), C64::from_re(2.0)];
        let y = a.mul_vec(&x);
        assert_eq!(y[0], C64::from_re(2.0)); // 0*1 + 1*2
        assert_eq!(y[1], C64::from_re(5.0)); // 1*1 + 2*2
    }

    /// Embeds the 2×2 block `t` into an `n×n` identity on channels
    /// `(m, m+1)` — reference for the in-place `apply_2x2_*` tests.
    fn embed_2x2(n: usize, m: usize, t: [[C64; 2]; 2]) -> CMat {
        CMat::from_fn(n, n, |r, c| {
            if (m..=m + 1).contains(&r) && (m..=m + 1).contains(&c) {
                t[r - m][c - m]
            } else if r == c {
                C64::ONE
            } else {
                C64::ZERO
            }
        })
    }

    #[test]
    fn embed_matches_apply_left() {
        let t = [
            [C64::new(0.6, 0.0), C64::new(0.0, 0.8)],
            [C64::new(0.0, 0.8), C64::new(0.6, 0.0)],
        ];
        let a = CMat::from_fn(4, 4, |r, c| C64::new(r as f64, c as f64));
        let full = embed_2x2(4, 1, t).matmul(&a);
        let mut fast = a.clone();
        fast.apply_2x2_left(1, t);
        assert!(full.approx_eq(&fast, 1e-12));
    }

    #[test]
    fn embed_matches_apply_right() {
        let t = [
            [C64::new(0.6, 0.0), C64::new(0.0, 0.8)],
            [C64::new(0.0, 0.8), C64::new(0.6, 0.0)],
        ];
        let a = CMat::from_fn(4, 4, |r, c| C64::new(c as f64, r as f64));
        let full = a.matmul(&embed_2x2(4, 2, t));
        let mut fast = a.clone();
        fast.apply_2x2_right(2, t);
        assert!(full.approx_eq(&fast, 1e-12));
    }

    #[test]
    fn matmul_into_matches_matmul() {
        let a = CMat::from_fn(3, 5, |r, c| C64::new(r as f64 - 1.0, c as f64));
        let b = CMat::from_fn(5, 2, |r, c| C64::new(c as f64, r as f64 - 2.0));
        let mut out = CMat::zeros(3, 2);
        a.matmul_into(&b, &mut out);
        assert_eq!(out, a.matmul(&b));
    }

    #[test]
    fn mul_vec_into_matches_mul_vec() {
        let a = CMat::from_fn(4, 3, |r, c| C64::new(r as f64, c as f64 + 0.5));
        let x = vec![C64::from_re(1.0), C64::I, C64::new(-2.0, 3.0)];
        let mut y = vec![C64::ZERO; 4];
        a.mul_vec_into(&x, &mut y);
        assert_eq!(y, a.mul_vec(&x));
    }

    #[test]
    #[should_panic(expected = "output must be")]
    fn matmul_into_checks_output_shape() {
        let a = CMat::zeros(2, 3);
        let b = CMat::zeros(3, 4);
        let mut out = CMat::zeros(2, 3);
        a.matmul_into(&b, &mut out);
    }

    #[test]
    fn frobenius_norm_identity() {
        assert!((CMat::identity(9).frobenius_norm() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = CMat::from_fn(2, 3, |r, c| C64::new(r as f64, c as f64));
        let b = CMat::from_fn(2, 3, |r, c| C64::new(c as f64, r as f64));
        let s = &(&a + &b) - &b;
        assert!(s.approx_eq(&a, 1e-14));
    }

    #[test]
    fn powers_returns_squared_magnitudes() {
        let v = vec![C64::new(3.0, 4.0), C64::I];
        assert_eq!(CMat::powers(&v), vec![25.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn matmul_mismatch_panics() {
        let a = CMat::zeros(2, 3);
        let b = CMat::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn scale_by_i_rotates_phase() {
        let a = CMat::identity(2).scale(C64::I);
        assert_eq!(a[(0, 0)], C64::I);
        assert!(a.is_unitary(1e-12));
    }
}
