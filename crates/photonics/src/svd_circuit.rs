//! The SVD MZIM compute circuit (paper §3.1.1, Fig. 4).
//!
//! A non-unitary matrix `M = U Σ Vᵀ` is realized photonically as three
//! stages: a unitary mesh programmed with `Vᵀ`, a column of attenuating MZIs
//! implementing the singular values `σᵢ`, and a unitary mesh programmed with
//! `U`. An `N`-input circuit uses `N(N−1)/2 + N + N(N−1)/2 = N²` MZIs.
//!
//! Because the attenuators are passive, `0 ≤ σᵢ ≤ 1` is required; arbitrary
//! matrices are pre-scaled by their spectral norm (paper §3.3.1,
//! [`flumen_linalg::spectral_scale`]) and the result is scaled back
//! digitally after readout.

use crate::analog::AnalogModel;
use crate::clements::program_mesh;
use crate::mesh::MzimMesh;
use crate::mzi::Attenuator;
use crate::{PhotonicsError, Result};
use flumen_linalg::{spectral_scale, svd, RMat, C64};

/// A programmed `N`-input SVD MZIM circuit.
///
/// # Examples
///
/// ```
/// use flumen_photonics::SvdCircuit;
/// use flumen_linalg::RMat;
///
/// # fn main() -> Result<(), flumen_photonics::PhotonicsError> {
/// let m = RMat::from_fn(4, 4, |r, c| ((r * 4 + c) as f64).sin());
/// let circuit = SvdCircuit::program(&m)?;
/// let x = vec![0.5, -0.25, 0.125, 1.0];
/// let y = circuit.apply(&x);
/// let y_true = m.mul_vec(&x);
/// for (a, b) in y.iter().zip(y_true.iter()) {
///     assert!((a - b).abs() < 1e-8);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SvdCircuit {
    n: usize,
    v_mesh: MzimMesh,
    attens: Vec<Attenuator>,
    u_mesh: MzimMesh,
    scale: f64,
}

impl SvdCircuit {
    /// Programs the circuit for an arbitrary square matrix, applying
    /// spectral-norm pre-scaling automatically. The scale is folded back in
    /// [`SvdCircuit::apply`].
    ///
    /// # Errors
    ///
    /// * [`PhotonicsError::InvalidSize`] for matrices smaller than 2×2 or
    ///   non-square.
    /// * Propagates decomposition failures.
    pub fn program(m: &RMat) -> Result<Self> {
        let (scaled, norm) = spectral_scale(m)?;
        let mut c = Self::program_prescaled(&scaled)?;
        c.scale = norm;
        Ok(c)
    }

    /// Programs the circuit for a matrix whose singular values are already
    /// all ≤ 1 (e.g. after [`flumen_linalg::spectral_scale`]).
    ///
    /// # Errors
    ///
    /// * [`PhotonicsError::SingularValueTooLarge`] if any `σᵢ > 1`.
    /// * [`PhotonicsError::InvalidSize`] for matrices smaller than 2×2 or
    ///   non-square.
    pub fn program_prescaled(m: &RMat) -> Result<Self> {
        let n = m.rows();
        if m.cols() != n || n < 2 {
            return Err(PhotonicsError::InvalidSize {
                n,
                requirement: "SVD circuit needs a square matrix, ≥ 2×2",
            });
        }
        let f = svd(m)?;
        if let Some(&top) = f.sigma.first() {
            if top > 1.0 + 1e-9 {
                return Err(PhotonicsError::SingularValueTooLarge { sigma: top });
            }
        }
        let mut v_mesh = MzimMesh::new(n);
        program_mesh(&mut v_mesh, &f.v.transpose().to_cmat())?;
        let mut u_mesh = MzimMesh::new(n);
        program_mesh(&mut u_mesh, &f.u.to_cmat())?;
        let attens = f
            .sigma
            .iter()
            .map(|&s| Attenuator::with_amplitude(s.min(1.0)))
            .collect::<Result<Vec<_>>>()?;
        Ok(SvdCircuit {
            n,
            v_mesh,
            attens,
            u_mesh,
            scale: 1.0,
        })
    }

    /// Quantizes every programmed phase to the model's phase-DAC
    /// resolution (call once after programming; idempotent).
    pub fn quantize_phases(&mut self, model: &AnalogModel) {
        quantize_mesh_phases(&mut self.v_mesh, model);
        quantize_mesh_phases(&mut self.u_mesh, model);
    }

    /// The circuit size `N`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The digital scale factor (`‖M‖₂` of the original matrix).
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Total MZIs: `N²` (two meshes of `N(N−1)/2` plus `N` attenuators).
    pub fn mzi_count(&self) -> usize {
        self.n * self.n
    }

    /// The programmed singular values (attenuator amplitudes).
    pub fn sigmas(&self) -> Vec<f64> {
        self.attens.iter().map(|a| a.amplitude()).collect()
    }

    /// Ideal analog matrix-vector product `M·x`: encode `x` as E-field
    /// amplitudes, propagate through `Vᵀ`, Σ, `U`, then read out coherently
    /// and scale back digitally.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != n`.
    pub fn apply(&self, x: &[f64]) -> Vec<f64> {
        self.apply_with_model(x, &AnalogModel::ideal(), 0)
    }

    /// Matrix-vector product through the analog precision model.
    ///
    /// Inputs are quantized by the input DACs, the propagation is an exact
    /// E-field simulation, and the readout adds noise and quantization per
    /// `model`. `seed` makes the readout noise deterministic.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != n`.
    pub fn apply_with_model(&self, x: &[f64], model: &AnalogModel, seed: u64) -> Vec<f64> {
        assert_eq!(x.len(), self.n, "input vector must match circuit size");
        let mut xq = x.to_vec();
        model.quantize_inputs(&mut xq);
        let fields: Vec<C64> = xq.iter().map(|&v| C64::from_re(v)).collect();
        let mid = self.v_mesh.propagate(&fields);
        let attenuated: Vec<C64> = mid
            .iter()
            .zip(self.attens.iter())
            .map(|(f, a)| a.apply(*f))
            .collect();
        let out = self.u_mesh.propagate(&attenuated);
        // Coherent (homodyne) readout recovers the signed amplitude.
        let mut ys: Vec<f64> = out.iter().map(|f| f.re).collect();
        model.apply_readout(&mut ys, seed);
        for y in ys.iter_mut() {
            *y *= self.scale;
        }
        ys
    }

    /// WDM-parallel matrix-matrix product (paper §3.3.1): each column of
    /// `a_cols` rides its own wavelength, so all `p` MVMs complete in one
    /// fabric pass. Returns the `p` output vectors.
    ///
    /// # Panics
    ///
    /// Panics if any column's length differs from `n`.
    pub fn apply_wdm(&self, a_cols: &[Vec<f64>], model: &AnalogModel, seed: u64) -> Vec<Vec<f64>> {
        a_cols
            .iter()
            .enumerate()
            .map(|(i, col)| self.apply_with_model(col, model, seed.wrapping_add(i as u64)))
            .collect()
    }
}

fn quantize_mesh_phases(mesh: &mut MzimMesh, model: &AnalogModel) {
    if model.phase_bits == 0 {
        return;
    }
    let slots: Vec<(usize, usize, crate::MziPhase)> =
        mesh.iter().map(|s| (s.col, s.mode, s.phase)).collect();
    for (col, mode, phase) in slots {
        let q = crate::MziPhase::new(
            model.quantize_phase(phase.theta),
            model.quantize_phase(phase.phi),
        );
        mesh.set_phase(col, mode, q).expect("slot exists");
    }
    let phases: Vec<f64> = mesh
        .output_phases()
        .iter()
        .map(|&p| model.quantize_phase(p))
        .collect();
    mesh.set_output_phases(&phases).expect("same length");
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_mat(seed: u64, n: usize) -> RMat {
        let mut rng = StdRng::seed_from_u64(seed);
        RMat::from_fn(n, n, |_, _| rng.gen_range(-1.0..1.0))
    }

    #[test]
    fn ideal_mvm_matches_dense_many_sizes() {
        for n in [2usize, 3, 4, 6, 8] {
            let m = random_mat(n as u64, n);
            let c = SvdCircuit::program(&m).unwrap();
            let x: Vec<f64> = (0..n).map(|i| ((i + 1) as f64 * 0.3).cos()).collect();
            let y = c.apply(&x);
            let y_true = m.mul_vec(&x);
            for (a, b) in y.iter().zip(y_true.iter()) {
                assert!((a - b).abs() < 1e-8, "n={n}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn scale_is_spectral_norm() {
        let m = RMat::identity(4).scale(3.0);
        let c = SvdCircuit::program(&m).unwrap();
        assert!((c.scale() - 3.0).abs() < 1e-9);
        assert!(c.sigmas().iter().all(|&s| (s - 1.0).abs() < 1e-9));
    }

    #[test]
    fn prescaled_rejects_large_sigma() {
        let m = RMat::identity(4).scale(2.0);
        assert!(matches!(
            SvdCircuit::program_prescaled(&m),
            Err(PhotonicsError::SingularValueTooLarge { .. })
        ));
    }

    #[test]
    fn rejects_non_square() {
        let m = RMat::zeros(3, 4);
        assert!(matches!(
            SvdCircuit::program(&m),
            Err(PhotonicsError::InvalidSize { .. })
        ));
    }

    #[test]
    fn mzi_count_is_n_squared() {
        let c = SvdCircuit::program(&random_mat(1, 6)).unwrap();
        assert_eq!(c.mzi_count(), 36);
        assert_eq!(c.n(), 6);
    }

    #[test]
    fn eight_bit_model_error_bounded() {
        let n = 8;
        let m = random_mat(7, n);
        let mut c = SvdCircuit::program(&m).unwrap();
        let model = AnalogModel::eight_bit();
        c.quantize_phases(&model);
        let x: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.9).sin()).collect();
        let y = c.apply_with_model(&x, &model, 42);
        let y_true = m.mul_vec(&x);
        let fs = y_true.iter().fold(0.0f64, |a, v| a.max(v.abs()));
        for (a, b) in y.iter().zip(y_true.iter()) {
            assert!(
                (a - b).abs() < 0.05 * fs.max(1e-9),
                "8-bit error too large: {a} vs {b}"
            );
        }
    }

    #[test]
    fn wdm_batch_matches_per_column() {
        let n = 4;
        let m = random_mat(9, n);
        let c = SvdCircuit::program(&m).unwrap();
        let cols: Vec<Vec<f64>> = (0..3)
            .map(|k| (0..n).map(|i| ((i + k) as f64 * 0.21).sin()).collect())
            .collect();
        let outs = c.apply_wdm(&cols, &AnalogModel::ideal(), 0);
        for (k, col) in cols.iter().enumerate() {
            let direct = c.apply(col);
            for (a, b) in outs[k].iter().zip(direct.iter()) {
                assert!((a - b).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn zero_matrix_maps_to_zero() {
        let m = RMat::zeros(4, 4);
        let c = SvdCircuit::program(&m).unwrap();
        let y = c.apply(&[1.0, 2.0, 3.0, 4.0]);
        for v in y {
            assert!(v.abs() < 1e-9);
        }
    }

    #[test]
    fn negative_entries_handled() {
        let m = RMat::from_rows(2, 2, vec![0.0, -1.0, 1.0, 0.0]).unwrap();
        let c = SvdCircuit::program(&m).unwrap();
        let y = c.apply(&[1.0, 0.5]);
        assert!((y[0] + 0.5).abs() < 1e-9);
        assert!((y[1] - 1.0).abs() < 1e-9);
    }
}
