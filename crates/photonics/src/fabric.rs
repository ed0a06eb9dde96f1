//! The Flumen photonic fabric (paper §3.1.2, Fig. 5).
//!
//! The fabric is an `N`-input rectangular unitary MZIM augmented with a
//! vertical column of `N` attenuating MZIs inserted mid-mesh (after column
//! `N/2 − 1`). The attenuators give the fabric its dual personality:
//!
//! * **Communication**: the whole mesh routes point-to-point, multicast and
//!   broadcast patterns; the attenuator column equalizes the per-path loss
//!   spread so every receiver sees the same optical power.
//! * **Computation**: a row of bar-state MZIs acts as a reflective barrier
//!   that splits the fabric into independent partitions. A partition of `w`
//!   wires is a complete `w`-input SVD MZIM — `w(w−1)/2` MZIs of the left
//!   half-columns programmed as `Vᵀ`, `w` attenuators as `Σ`, and
//!   `w(w−1)/2` of the right half-columns as `U` — so an `N`-fabric split
//!   evenly yields two `N/2`-input SVD circuits (hence `N` divisible by 4).
//!
//! Both personalities coexist: different partitions can simultaneously carry
//! traffic and run matrix products.

use crate::analog::AnalogModel;
use crate::clements::{apply_program_in_range, decompose, program_mesh};
use crate::device::DeviceParams;
use crate::mesh::MzimMesh;
use crate::mzi::Attenuator;
use crate::routing;
use crate::{PhotonicsError, Result};
use flumen_linalg::{spectral_scale, svd, CMat, RMat, C64};
use flumen_units::Decibels;

/// What a fabric partition is currently doing.
#[derive(Debug, Clone, PartialEq)]
pub enum PartitionRole {
    /// No programming; wires pass straight through.
    Idle,
    /// Cross/bar (or splitting) communication routing.
    Communication,
    /// An SVD compute circuit with the recorded digital scale factor.
    Compute {
        /// Spectral norm folded out of the programmed matrix.
        scale: f64,
    },
}

/// A contiguous wire range of the fabric with an assigned role.
#[derive(Debug, Clone, PartialEq)]
pub struct Partition {
    /// First wire of the partition.
    pub base: usize,
    /// Number of wires.
    pub width: usize,
    /// Current role.
    pub role: PartitionRole,
}

/// Configuration requested for one partition in
/// [`FlumenFabric::set_partitions`].
#[derive(Debug, Clone)]
pub enum PartitionConfig<'a> {
    /// Keep the wires idle (straight through).
    Idle,
    /// Reserve for communication; route with
    /// [`FlumenFabric::route_permutation_in`] /
    /// [`FlumenFabric::route_multicast_in`].
    Comm,
    /// Program a compute circuit for the given `w×w` matrix (spectral-norm
    /// scaling is applied automatically).
    Compute(&'a RMat),
}

/// Per-path trace through the fabric, for loss accounting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FabricTrace {
    /// MZIs traversed (mesh MZIs; the attenuator column is counted
    /// separately since every path crosses exactly one attenuator).
    pub mzis_traversed: usize,
    /// The wire the signal occupies when it crosses the attenuator column.
    pub mid_wire: usize,
    /// Output wire reached.
    pub output: usize,
}

/// The Flumen photonic fabric.
///
/// # Examples
///
/// ```
/// use flumen_photonics::{FlumenFabric, PartitionConfig};
/// use flumen_linalg::RMat;
///
/// # fn main() -> Result<(), flumen_photonics::PhotonicsError> {
/// let mut fabric = FlumenFabric::new(8)?;
/// // Top half communicates, bottom half computes (paper Fig. 5).
/// let weights = RMat::from_fn(4, 4, |r, c| ((r + 2 * c) as f64 * 0.37).sin());
/// fabric.set_partitions(&[
///     (4, PartitionConfig::Comm),
///     (4, PartitionConfig::Compute(&weights)),
/// ])?;
/// fabric.route_permutation_in(0, &[2, 0, 3, 1])?;
/// let y = fabric.compute_in(1, &[0.5, -0.5, 0.25, 1.0])?;
/// let y_true = weights.mul_vec(&[0.5, -0.5, 0.25, 1.0]);
/// for (a, b) in y.iter().zip(y_true.iter()) {
///     assert!((a - b).abs() < 1e-8);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct FlumenFabric {
    n: usize,
    mesh: MzimMesh,
    /// Phase screen applied after the left half-columns, before Σ.
    mid_phases: Vec<f64>,
    /// The Σ / loss-equalization attenuator column.
    attens: Vec<Attenuator>,
    /// Phase screen at the fabric outputs.
    out_phases: Vec<f64>,
    partitions: Vec<Partition>,
}

impl FlumenFabric {
    /// Creates an idle `n`-input fabric.
    ///
    /// # Errors
    ///
    /// Returns [`PhotonicsError::InvalidSize`] unless `n ≥ 4` and
    /// `n % 4 == 0` (required for even partitioning, paper §3.1.2).
    pub fn new(n: usize) -> Result<Self> {
        if n < 4 || !n.is_multiple_of(4) {
            return Err(PhotonicsError::InvalidSize {
                n,
                requirement: "fabric size must be ≥ 4 and divisible by 4",
            });
        }
        Ok(FlumenFabric {
            n,
            mesh: MzimMesh::new(n),
            mid_phases: vec![0.0; n],
            attens: vec![Attenuator::transparent(); n],
            out_phases: vec![0.0; n],
            partitions: vec![Partition {
                base: 0,
                width: n,
                role: PartitionRole::Idle,
            }],
        })
    }

    /// Fabric size `N`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Total MZIs including the attenuator column: `N(N−1)/2 + N`.
    pub fn mzi_count(&self) -> usize {
        self.mesh.mzi_count() + self.n
    }

    /// Current partitions, in wire order.
    pub fn partitions(&self) -> &[Partition] {
        &self.partitions
    }

    /// Resets the fabric to a single idle partition.
    pub fn reset(&mut self) {
        self.mesh.reset();
        self.mid_phases.fill(0.0);
        self.attens = vec![Attenuator::transparent(); self.n];
        self.out_phases.fill(0.0);
        self.partitions = vec![Partition {
            base: 0,
            width: self.n,
            role: PartitionRole::Idle,
        }];
    }

    /// Programs the whole fabric as one `N×N` unitary (communication mode;
    /// paper's "one large unitary matrix"). Attenuators become transparent.
    ///
    /// # Errors
    ///
    /// Propagates [`crate::clements::decompose`] errors.
    pub fn configure_unitary(&mut self, u: &CMat) -> Result<()> {
        self.reset();
        program_mesh(&mut self.mesh, u)?;
        self.out_phases.copy_from_slice(&{
            let p = self.mesh.output_phases().to_vec();
            self.mesh.set_output_phases(&vec![0.0; self.n])?;
            p
        });
        self.partitions = vec![Partition {
            base: 0,
            width: self.n,
            role: PartitionRole::Communication,
        }];
        Ok(())
    }

    /// Routes a full-fabric permutation: input `i` exits on `perm[i]`.
    ///
    /// # Errors
    ///
    /// Propagates [`routing::route_permutation`] errors.
    pub fn configure_permutation(&mut self, perm: &[usize]) -> Result<()> {
        self.reset();
        routing::route_permutation(&mut self.mesh, perm)?;
        self.partitions = vec![Partition {
            base: 0,
            width: self.n,
            role: PartitionRole::Communication,
        }];
        Ok(())
    }

    /// Routes a full-fabric multicast/broadcast from `src` to `dests`.
    ///
    /// # Errors
    ///
    /// Propagates [`routing::route_multicast`] errors.
    pub fn configure_multicast(&mut self, src: usize, dests: &[usize]) -> Result<()> {
        self.reset();
        routing::route_multicast(&mut self.mesh, src, dests)?;
        self.partitions = vec![Partition {
            base: 0,
            width: self.n,
            role: PartitionRole::Communication,
        }];
        Ok(())
    }

    /// Partitions the fabric (paper Fig. 5): `configs` lists
    /// `(width, role)` pairs in wire order; widths must be even, sum to `N`,
    /// and compute partitions must fit in the half-columns (`width ≤ N/2`).
    /// Barrier MZIs between partitions are left in the bar state, which
    /// isolates the ranges.
    ///
    /// # Errors
    ///
    /// * [`PhotonicsError::InvalidSize`] for bad widths.
    /// * Programming errors from compute partitions.
    pub fn set_partitions(&mut self, configs: &[(usize, PartitionConfig<'_>)]) -> Result<()> {
        let total: usize = configs.iter().map(|(w, _)| *w).sum();
        if total != self.n || configs.iter().any(|(w, _)| *w < 2 || w % 2 != 0) {
            return Err(PhotonicsError::InvalidSize {
                n: total,
                requirement: "partition widths must be even, ≥ 2, and sum to the fabric size",
            });
        }
        self.reset();
        self.partitions.clear();
        let mut base = 0usize;
        for (width, config) in configs {
            let role = match config {
                PartitionConfig::Idle => PartitionRole::Idle,
                PartitionConfig::Comm => PartitionRole::Communication,
                PartitionConfig::Compute(m) => {
                    let scale = self.program_compute_partition(base, *width, m)?;
                    PartitionRole::Compute { scale }
                }
            };
            self.partitions.push(Partition {
                base,
                width: *width,
                role,
            });
            base += width;
        }
        Ok(())
    }

    /// Programs wires `[base, base+w)` as a `w`-input SVD circuit:
    /// spectral pre-scaling, SVD, and one Clements decomposition per
    /// unitary factor — `Vᵀ` on the left half-columns, `U` on the right —
    /// with `Σ` on the attenuator column. Returns the spectral-norm scale
    /// factor.
    fn program_compute_partition(&mut self, base: usize, w: usize, m: &RMat) -> Result<f64> {
        if m.rows() != w || m.cols() != w {
            return Err(PhotonicsError::DimensionMismatch {
                expected: w,
                actual: m.rows(),
            });
        }
        if w > self.n / 2 {
            return Err(PhotonicsError::InvalidSize {
                n: w,
                requirement: "compute partitions need width ≤ N/2 (half-columns per mesh)",
            });
        }
        let (scaled, norm) = spectral_scale(m)?;
        let f = svd(&scaled)?;
        for &s in &f.sigma {
            if s > 1.0 + 1e-9 {
                return Err(PhotonicsError::SingularValueTooLarge { sigma: s });
            }
        }
        let v_prog = decompose(&f.v.transpose().to_cmat())?;
        let u_prog = decompose(&f.u.to_cmat())?;
        let half = self.n / 2;
        let v_out = apply_program_in_range(&mut self.mesh, &v_prog, base, 0, half)?;
        let u_out = apply_program_in_range(&mut self.mesh, &u_prog, base, half, half)?;
        for i in 0..w {
            self.mid_phases[base + i] = v_out[i];
            self.out_phases[base + i] = u_out[i];
            self.attens[base + i] = Attenuator::with_amplitude(f.sigma[i].min(1.0))?;
        }
        Ok(norm)
    }

    /// Routes a permutation inside communication partition `part`
    /// (`perm` is relative to the partition's wires).
    ///
    /// # Errors
    ///
    /// [`PhotonicsError::NotRoutable`] if the partition is not a
    /// communication partition, or routing fails.
    pub fn route_permutation_in(&mut self, part: usize, perm: &[usize]) -> Result<()> {
        let p = self.comm_partition(part)?;
        routing::route_permutation_in_range(&mut self.mesh, p.base, p.width, 0, self.n, perm)
    }

    /// Routes a multicast inside communication partition `part`
    /// (`src`/`dests` relative to the partition's wires).
    ///
    /// # Errors
    ///
    /// [`PhotonicsError::NotRoutable`] if the partition is not a
    /// communication partition, or tree construction fails.
    pub fn route_multicast_in(&mut self, part: usize, src: usize, dests: &[usize]) -> Result<()> {
        let p = self.comm_partition(part)?;
        let abs_dests: Vec<usize> = dests.iter().map(|d| p.base + d).collect();
        routing::route_multicast_in_range(
            &mut self.mesh,
            p.base,
            p.width,
            0,
            self.n,
            p.base + src,
            &abs_dests,
        )
    }

    fn comm_partition(&self, part: usize) -> Result<Partition> {
        let p = self
            .partitions
            .get(part)
            .cloned()
            .ok_or(PhotonicsError::NotRoutable {
                reason: format!("no partition {part}"),
            })?;
        if p.role != PartitionRole::Communication {
            return Err(PhotonicsError::NotRoutable {
                reason: format!("partition {part} is not a communication partition"),
            });
        }
        Ok(p)
    }

    /// Runs the compute partition `part` on input `x` (length = partition
    /// width) with an ideal analog model.
    ///
    /// # Errors
    ///
    /// [`PhotonicsError::NotRoutable`] if `part` is not a compute partition;
    /// [`PhotonicsError::DimensionMismatch`] on input length mismatch.
    pub fn compute_in(&self, part: usize, x: &[f64]) -> Result<Vec<f64>> {
        self.compute_in_with_model(part, x, &AnalogModel::ideal(), 0)
    }

    /// Runs the compute partition `part` through the analog precision model.
    ///
    /// The whole fabric is physically propagated (other partitions carry
    /// zero fields), demonstrating isolation across the bar-state barrier.
    ///
    /// # Errors
    ///
    /// See [`FlumenFabric::compute_in`].
    pub fn compute_in_with_model(
        &self,
        part: usize,
        x: &[f64],
        model: &AnalogModel,
        seed: u64,
    ) -> Result<Vec<f64>> {
        let p = self
            .partitions
            .get(part)
            .ok_or(PhotonicsError::NotRoutable {
                reason: format!("no partition {part}"),
            })?;
        let scale = match p.role {
            PartitionRole::Compute { scale } => scale,
            _ => {
                return Err(PhotonicsError::NotRoutable {
                    reason: format!("partition {part} is not a compute partition"),
                })
            }
        };
        if x.len() != p.width {
            return Err(PhotonicsError::DimensionMismatch {
                expected: p.width,
                actual: x.len(),
            });
        }
        let mut xq = x.to_vec();
        model.quantize_inputs(&mut xq);
        let mut fields = vec![C64::ZERO; self.n];
        for (i, &v) in xq.iter().enumerate() {
            fields[p.base + i] = C64::from_re(v);
        }
        let out = self.propagate(&fields);
        let mut ys: Vec<f64> = (0..p.width).map(|i| out[p.base + i].re).collect();
        model.apply_readout(&mut ys, seed);
        for y in ys.iter_mut() {
            *y *= scale;
        }
        Ok(ys)
    }

    /// Physical E-field propagation through the whole fabric: left
    /// half-columns, mid phase screen, attenuator column, right
    /// half-columns, output phase screen.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != n`.
    pub fn propagate(&self, input: &[C64]) -> Vec<C64> {
        assert_eq!(input.len(), self.n);
        let half = self.n / 2;
        let mut field = input.to_vec();
        for c in 0..half {
            self.apply_column(c, &mut field);
        }
        for (i, f) in field.iter_mut().enumerate() {
            *f = self.attens[i].apply(*f * C64::cis(self.mid_phases[i]));
        }
        for c in half..self.n {
            self.apply_column(c, &mut field);
        }
        for (f, &p) in field.iter_mut().zip(self.out_phases.iter()) {
            *f *= C64::cis(p);
        }
        field
    }

    fn apply_column(&self, c: usize, field: &mut [C64]) {
        for slot in self.mesh.column(c) {
            let t = slot.phase.transfer();
            let a = field[slot.mode];
            let b = field[slot.mode + 1];
            field[slot.mode] = t[0][0] * a + t[0][1] * b;
            field[slot.mode + 1] = t[1][0] * a + t[1][1] * b;
        }
    }

    /// The full `N×N` transfer matrix (generally non-unitary once
    /// attenuators engage).
    pub fn transfer_matrix(&self) -> CMat {
        let mut cols = Vec::with_capacity(self.n);
        for i in 0..self.n {
            let mut e = vec![C64::ZERO; self.n];
            e[i] = C64::ONE;
            cols.push(self.propagate(&e));
        }
        CMat::from_fn(self.n, self.n, |r, c| cols[c][r])
    }

    /// Traces the routed path from input `src` (cross/bar programming only).
    /// Returns `None` when the current configuration splits or does not
    /// carry the signal to a single output.
    pub fn trace_route(&self, src: usize) -> Option<FabricTrace> {
        let half = self.n / 2;
        let mut wire = src;
        let mut mzis = 0usize;
        let mut mid_wire = src;
        for c in 0..self.n {
            if c == half {
                mid_wire = wire;
            }
            let mut found = false;
            for slot in self.mesh.column(c) {
                if slot.mode == wire || slot.mode + 1 == wire {
                    if slot.phase.is_bar() {
                        mzis += 1;
                    } else if slot.phase.is_cross() {
                        wire = if slot.mode == wire {
                            slot.mode + 1
                        } else {
                            slot.mode
                        };
                        mzis += 1;
                    } else {
                        return None;
                    }
                    found = true;
                    break;
                }
            }
            let _ = found;
        }
        Some(FabricTrace {
            mzis_traversed: mzis,
            mid_wire,
            output: wire,
        })
    }

    /// Equalizes routed-path losses using the attenuator column (paper
    /// §3.1.2): after routing a permutation, each source-destination path
    /// traverses a different number of MZIs; the attenuators bring every
    /// path down to the worst-case loss so all receivers see equal power.
    ///
    /// Returns the worst-case path loss (MZI insertion losses only).
    ///
    /// # Errors
    ///
    /// [`PhotonicsError::NotRoutable`] if the fabric is not currently in a
    /// traceable cross/bar configuration.
    pub fn equalize_losses(&mut self, dev: &DeviceParams) -> Result<Decibels> {
        let mzi_db = dev.mzi_loss_db();
        let mut traces = Vec::with_capacity(self.n);
        for src in 0..self.n {
            let t = self
                .trace_route(src)
                .ok_or_else(|| PhotonicsError::NotRoutable {
                    reason: "fabric is not in a pure cross/bar routing state".into(),
                })?;
            traces.push(t);
        }
        let worst = traces.iter().map(|t| t.mzis_traversed).max().unwrap_or(0) as f64 * mzi_db;
        for t in &traces {
            let path_db = t.mzis_traversed as f64 * mzi_db;
            let extra_db = worst - path_db;
            let amp = (-extra_db).to_linear().sqrt();
            self.attens[t.mid_wire] = Attenuator::with_amplitude(amp)?;
        }
        Ok(worst)
    }

    /// The attenuator column amplitudes.
    pub fn attenuations(&self) -> Vec<f64> {
        self.attens.iter().map(|a| a.amplitude()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flumen_linalg::random_unitary;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn power_out(fabric: &FlumenFabric, src: usize) -> Vec<f64> {
        let mut input = vec![C64::ZERO; fabric.n()];
        input[src] = C64::ONE;
        fabric
            .propagate(&input)
            .iter()
            .map(|f| f.norm_sqr())
            .collect()
    }

    #[test]
    fn new_rejects_bad_sizes() {
        assert!(FlumenFabric::new(6).is_err());
        assert!(FlumenFabric::new(2).is_err());
        assert!(FlumenFabric::new(8).is_ok());
        assert!(FlumenFabric::new(16).is_ok());
    }

    #[test]
    fn mzi_count_includes_attenuators() {
        let f = FlumenFabric::new(8).unwrap();
        assert_eq!(f.mzi_count(), 28 + 8);
    }

    #[test]
    fn whole_fabric_unitary() {
        let mut rng = StdRng::seed_from_u64(5);
        let u = random_unitary(8, &mut rng);
        let mut f = FlumenFabric::new(8).unwrap();
        f.configure_unitary(&u).unwrap();
        assert!(f.transfer_matrix().approx_eq(&u, 1e-8));
    }

    #[test]
    fn whole_fabric_permutation() {
        let mut f = FlumenFabric::new(8).unwrap();
        let perm = [5usize, 2, 7, 0, 3, 6, 1, 4];
        f.configure_permutation(&perm).unwrap();
        for i in 0..8 {
            let p = power_out(&f, i);
            assert!((p[perm[i]] - 1.0).abs() < 1e-10);
        }
    }

    #[test]
    fn whole_fabric_broadcast() {
        let mut f = FlumenFabric::new(8).unwrap();
        f.configure_multicast(3, &(0..8).collect::<Vec<_>>())
            .unwrap();
        let p = power_out(&f, 3);
        for w in p {
            assert!((w - 0.125).abs() < 1e-9);
        }
    }

    #[test]
    fn even_split_gives_two_svd_circuits() {
        let mut rng = StdRng::seed_from_u64(6);
        let m_top = RMat::from_fn(4, 4, |_, _| rng.gen_range(-1.0..1.0));
        let m_bot = RMat::from_fn(4, 4, |_, _| rng.gen_range(-1.0..1.0));
        let mut f = FlumenFabric::new(8).unwrap();
        f.set_partitions(&[
            (4, PartitionConfig::Compute(&m_top)),
            (4, PartitionConfig::Compute(&m_bot)),
        ])
        .unwrap();
        let x = [0.4, -0.3, 0.2, 0.9];
        let y0 = f.compute_in(0, &x).unwrap();
        let y1 = f.compute_in(1, &x).unwrap();
        let t0 = m_top.mul_vec(&x);
        let t1 = m_bot.mul_vec(&x);
        for i in 0..4 {
            assert!((y0[i] - t0[i]).abs() < 1e-8, "top {i}");
            assert!((y1[i] - t1[i]).abs() < 1e-8, "bottom {i}");
        }
    }

    #[test]
    fn comm_and_compute_coexist() {
        let mut rng = StdRng::seed_from_u64(7);
        let m = RMat::from_fn(4, 4, |_, _| rng.gen_range(-1.0..1.0));
        let mut f = FlumenFabric::new(8).unwrap();
        f.set_partitions(&[
            (4, PartitionConfig::Comm),
            (4, PartitionConfig::Compute(&m)),
        ])
        .unwrap();
        f.route_permutation_in(0, &[1, 3, 0, 2]).unwrap();
        // Communication works on wires 0..4.
        let p = power_out(&f, 0);
        assert!((p[1] - 1.0).abs() < 1e-9);
        // Compute works on wires 4..8.
        let x = [1.0, 0.5, -0.5, 0.25];
        let y = f.compute_in(1, &x).unwrap();
        let t = m.mul_vec(&x);
        for i in 0..4 {
            assert!((y[i] - t[i]).abs() < 1e-8);
        }
        // Isolation: injecting on the comm side leaks nothing to the bottom.
        let leak: f64 = p[4..].iter().sum();
        assert!(leak < 1e-12);
    }

    #[test]
    fn partition_width_rules_enforced() {
        let mut f = FlumenFabric::new(8).unwrap();
        // Widths must sum to n.
        assert!(f.set_partitions(&[(4, PartitionConfig::Comm)]).is_err());
        // Odd widths rejected.
        assert!(f
            .set_partitions(&[(3, PartitionConfig::Comm), (5, PartitionConfig::Comm)])
            .is_err());
        // Compute partitions wider than N/2 rejected.
        let m = RMat::identity(6);
        assert!(f
            .set_partitions(&[
                (6, PartitionConfig::Compute(&m)),
                (2, PartitionConfig::Idle)
            ])
            .is_err());
    }

    #[test]
    fn compute_in_checks_partition_kind() {
        let mut f = FlumenFabric::new(8).unwrap();
        f.set_partitions(&[(8, PartitionConfig::Comm)]).unwrap();
        assert!(f.compute_in(0, &[0.0; 8]).is_err());
        assert!(f.compute_in(3, &[0.0; 4]).is_err());
        // An input whose length is not the compute partition's width.
        let m = RMat::identity(4);
        f.set_partitions(&[
            (4, PartitionConfig::Compute(&m)),
            (4, PartitionConfig::Idle),
        ])
        .unwrap();
        assert!(f.compute_in(0, &[0.5; 4]).is_ok());
        assert!(f.compute_in(0, &[0.5; 5]).is_err());
    }

    #[test]
    fn spectral_scaling_is_transparent() {
        // A matrix with norm > 1 still computes correctly end to end.
        let m = RMat::from_fn(4, 4, |r, c| if r == c { 3.0 } else { 0.5 });
        let mut f = FlumenFabric::new(8).unwrap();
        f.set_partitions(&[
            (4, PartitionConfig::Compute(&m)),
            (4, PartitionConfig::Idle),
        ])
        .unwrap();
        match &f.partitions()[0].role {
            PartitionRole::Compute { scale } => assert!(*scale > 1.0),
            other => panic!("expected compute role, got {other:?}"),
        }
        let x = [0.1, 0.2, 0.3, 0.4];
        let y = f.compute_in(0, &x).unwrap();
        let t = m.mul_vec(&x);
        for i in 0..4 {
            assert!((y[i] - t[i]).abs() < 1e-8);
        }
    }

    #[test]
    fn loss_equalization_levels_received_power() {
        let dev = DeviceParams::paper();
        let mut f = FlumenFabric::new(8).unwrap();
        let perm = [7usize, 0, 5, 2, 6, 1, 4, 3];
        f.configure_permutation(&perm).unwrap();
        // Path MZI counts differ before equalization.
        let counts: Vec<usize> = (0..8)
            .map(|s| f.trace_route(s).unwrap().mzis_traversed)
            .collect();
        assert!(counts.iter().max() != counts.iter().min());
        let worst_db = f.equalize_losses(&dev).unwrap();
        assert!(worst_db > Decibels::ZERO);
        // With per-MZI loss applied manually, all received powers now equal.
        let mzi_t = (-dev.mzi_loss_db()).to_linear();
        let mut powers = Vec::new();
        for src in 0..8 {
            let t = f.trace_route(src).unwrap();
            let path_power = mzi_t.powi(t.mzis_traversed as i32);
            let atten = f.attenuations()[t.mid_wire];
            powers.push(path_power * atten * atten);
        }
        let first = powers[0];
        for p in &powers {
            assert!((p - first).abs() < 1e-10, "{powers:?}");
        }
        assert!((first - (-worst_db).to_linear()).abs() < 1e-10);
    }

    #[test]
    fn eight_bit_compute_error_bounded() {
        let mut rng = StdRng::seed_from_u64(10);
        let m = RMat::from_fn(4, 4, |_, _| rng.gen_range(-1.0..1.0));
        let mut f = FlumenFabric::new(8).unwrap();
        f.set_partitions(&[
            (4, PartitionConfig::Compute(&m)),
            (4, PartitionConfig::Idle),
        ])
        .unwrap();
        let model = AnalogModel::eight_bit();
        let x = [0.9, -0.6, 0.3, -0.1];
        let y = f.compute_in_with_model(0, &x, &model, 11).unwrap();
        let t = m.mul_vec(&x);
        let fs = t.iter().fold(0.0f64, |a, v| a.max(v.abs()));
        for i in 0..4 {
            assert!((y[i] - t[i]).abs() < 0.05 * fs.max(1e-9));
        }
    }

    #[test]
    fn reset_restores_idle() {
        let mut f = FlumenFabric::new(8).unwrap();
        f.configure_permutation(&[1, 0, 3, 2, 5, 4, 7, 6]).unwrap();
        f.reset();
        assert_eq!(f.partitions().len(), 1);
        assert_eq!(f.partitions()[0].role, PartitionRole::Idle);
        let p = power_out(&f, 2);
        assert!((p[2] - 1.0).abs() < 1e-10);
    }

    #[test]
    fn sixteen_fabric_four_partitions() {
        let mut rng = StdRng::seed_from_u64(12);
        let m = RMat::from_fn(4, 4, |_, _| rng.gen_range(-0.5..0.5));
        let mut f = FlumenFabric::new(16).unwrap();
        f.set_partitions(&[
            (4, PartitionConfig::Comm),
            (4, PartitionConfig::Compute(&m)),
            (4, PartitionConfig::Idle),
            (4, PartitionConfig::Compute(&m)),
        ])
        .unwrap();
        f.route_permutation_in(0, &[3, 2, 1, 0]).unwrap();
        let x = [0.2, 0.4, 0.6, 0.8];
        let t = m.mul_vec(&x);
        for part in [1usize, 3] {
            let y = f.compute_in(part, &x).unwrap();
            for i in 0..4 {
                assert!((y[i] - t[i]).abs() < 1e-8, "part {part} out {i}");
            }
        }
        let p = power_out(&f, 0);
        assert!((p[3] - 1.0).abs() < 1e-9);
    }
}
