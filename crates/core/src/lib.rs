//! # flumen
//!
//! A from-scratch reproduction of **Flumen: Dynamic Processing in the
//! Photonic Interconnect** (ISCA 2023): a dual-purpose photonic
//! network-on-package whose Mach-Zehnder interferometer mesh (MZIM)
//! carries chiplet traffic under load and morphs into photonic
//! matrix-multiply accelerators when links sit idle.
//!
//! This crate is the top of the stack:
//!
//! * [`scheduler`] — Algorithm 1 (τ/η/ζ partition scheduling).
//! * [`MzimControlUnit`] — the control unit of paper Fig. 8, co-simulated
//!   with the `flumen-noc` crossbar and the `flumen-system` multicore.
//! * [`runtime`] — one-call benchmark execution on Ring / Mesh / OptBus /
//!   Flumen-I / Flumen-A (the data behind paper Figs. 13–15).
//!
//! The photonic fabric itself ([`FlumenFabric`]), its communication
//! routing and compute circuits live in `flumen-photonics` and are
//! re-exported here.
//!
//! # Quickstart
//!
//! ```
//! use flumen::{FlumenFabric, PartitionConfig};
//! use flumen_linalg::RMat;
//!
//! # fn main() -> Result<(), flumen::PhotonicsError> {
//! // An 8-input fabric: route traffic on the top half while the bottom
//! // half multiplies by a 4×4 matrix — simultaneously.
//! let mut fabric = FlumenFabric::new(8)?;
//! let weights = RMat::from_fn(4, 4, |r, c| ((r + 2 * c) as f64 * 0.4).sin());
//! fabric.set_partitions(&[
//!     (4, PartitionConfig::Comm),
//!     (4, PartitionConfig::Compute(&weights)),
//! ])?;
//! fabric.route_permutation_in(0, &[2, 0, 3, 1])?;
//! let y = fabric.compute_in(1, &[0.5, -0.25, 1.0, 0.125])?;
//! let exact = weights.mul_vec(&[0.5, -0.25, 1.0, 0.125]);
//! assert!((y[0] - exact[0]).abs() < 1e-8);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod control_unit;
pub mod runtime;
pub mod scheduler;

pub use control_unit::{ControlUnitParams, MzimControlUnit};
pub use runtime::{
    run_benchmark, run_benchmark_checkpointed, run_benchmark_traced, run_utilization_trace,
    CheckpointPolicy, FullRunResult, RuntimeConfig, SystemTopology, TopologySim,
};

// The fabric API is the public face of the architecture; re-export it.
pub use flumen_photonics::{
    AnalogModel, DeviceParams, FlumenFabric, MzimMesh, Partition, PartitionConfig, PartitionRole,
    PhotonicsError, SvdCircuit,
};
