//! Full-system energy accounting (paper Fig. 13) — the McPAT substitute.
//!
//! Raw activity counts from `flumen-system` are priced with 7 nm-scaled
//! per-event energies. Dynamic NoP energy uses Table 1 link energies
//! (1.17 pJ/bit electrical, 0.703 pJ/bit photonic at 64 λ); static NoP
//! power per topology is calibrated against the paper's §5.2 relative
//! network-energy results (see each constant's comment and EXPERIMENTS.md).

use crate::compute;
use flumen_noc::NetStats;
use flumen_system::ActivityCounts;
use flumen_units::{Cycles, GigaHertz, Picojoules};

/// Which NoP the system ran on (decides the network energy model).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NopKind {
    /// Electrical ring (long perimeter links).
    Ring,
    /// Electrical 2-D mesh.
    Mesh,
    /// Shared-waveguide optical bus.
    OptBus,
    /// Flumen fabric used for communication only (Flumen-I).
    FlumenComm,
    /// Flumen fabric with compute acceleration (Flumen-A).
    FlumenAccel,
    /// A pure-communication MZIM without the compute DAC/ADC overhead
    /// (the "MZIM network topology purely for communication" of §5.2).
    MzimCommOnly,
}

/// Per-event and static energy parameters, 7 nm-scaled.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyParams {
    /// Core energy per operation (OoO pipeline overhead included).
    pub core_op_pj: Picojoules,
    /// Core static energy per busy cycle.
    pub core_busy_pj: Picojoules,
    /// L1 (I or D) access energy.
    pub l1_pj: Picojoules,
    /// L2 access energy.
    pub l2_pj: Picojoules,
    /// L3 slice access energy.
    pub l3_pj: Picojoules,
    /// DRAM access energy per 64 B line.
    pub dram_pj: Picojoules,
    /// Electrical mesh link energy per bit-hop (Table 1, [37]).
    pub mesh_bit_pj: Picojoules,
    /// Electrical ring link energy, pJ/bit/hop — ring links span several
    /// chiplet pitches on the package perimeter, and metallic link energy
    /// scales with length [1]; 2.7× the mesh pitch reproduces the §5.2
    /// ring/mesh gap.
    pub ring_bit_pj: Picojoules,
    /// Photonic link energy per bit (Table 1, 64 λ).
    pub photonic_bit_pj: Picojoules,
    /// Static power per electrical router, W.
    pub elec_router_static_w: f64,
    /// OptBus static power, W: endpoint MRR thermal tuning plus the
    /// loss-dominated laser (§5.2 / Fig. 12a) — the highest of the
    /// photonic options.
    pub optbus_static_w: f64,
    /// MZIM fabric static power for communication, W: laser, MRR tuning
    /// at the endpoints, TIAs and SerDes.
    pub mzim_comm_static_w: f64,
    /// Additional always-on DAC/ADC power Flumen carries to support
    /// computation (§5.2 attributes Flumen's energy being above OptBus's
    /// to exactly this).
    pub flumen_dacadc_static_w: f64,
    /// Core leakage per core, W (McPAT-style static power).
    pub core_leak_w_per_core: f64,
    /// Shared-L3 leakage, W (whole 16 MB array).
    pub l3_leak_w: f64,
    /// DRAM background power, W.
    pub dram_background_w: f64,
}

impl EnergyParams {
    /// Default 7 nm calibration.
    pub fn paper_7nm() -> Self {
        EnergyParams {
            core_op_pj: Picojoules::new(6.0),
            core_busy_pj: Picojoules::new(10.0),
            l1_pj: Picojoules::new(0.6),
            l2_pj: Picojoules::new(2.5),
            l3_pj: Picojoules::new(20.0),
            dram_pj: Picojoules::new(6_000.0),
            mesh_bit_pj: Picojoules::new(1.17),
            ring_bit_pj: Picojoules::new(1.17 * 2.7),
            photonic_bit_pj: Picojoules::new(0.703),
            elec_router_static_w: 0.02,
            optbus_static_w: 0.5,
            mzim_comm_static_w: 0.3,
            flumen_dacadc_static_w: 0.35,
            core_leak_w_per_core: 0.25,
            l3_leak_w: 0.4,
            dram_background_w: 0.5,
        }
    }
}

impl Default for EnergyParams {
    fn default() -> Self {
        EnergyParams::paper_7nm()
    }
}

/// Energy split by component, joules (paper Fig. 13's stacks).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EnergyBreakdown {
    /// Core pipelines.
    pub core_j: f64,
    /// L1 instruction caches.
    pub l1i_j: f64,
    /// L1 data caches.
    pub l1d_j: f64,
    /// Private L2s.
    pub l2_j: f64,
    /// Shared L3.
    pub l3_j: f64,
    /// DRAM.
    pub dram_j: f64,
    /// Network-on-package (dynamic + static).
    pub nop_j: f64,
    /// MZIM computation (Flumen-A only).
    pub mzim_j: f64,
}

impl EnergyBreakdown {
    /// Total energy, joules.
    pub fn total_j(&self) -> f64 {
        self.core_j
            + self.l1i_j
            + self.l1d_j
            + self.l2_j
            + self.l3_j
            + self.dram_j
            + self.nop_j
            + self.mzim_j
    }

    /// Energy-delay product, J·s.
    pub fn edp(&self, seconds: f64) -> f64 {
        self.total_j() * seconds
    }
}

/// Prices a run: counts + network stats + runtime → per-component joules.
pub fn system_energy(
    counts: &ActivityCounts,
    net: &NetStats,
    seconds: f64,
    cores: usize,
    nop: NopKind,
    params: &EnergyParams,
) -> EnergyBreakdown {
    let mut b = EnergyBreakdown {
        core_j: (params.core_op_pj.for_each(counts.core_ops)
            + params.core_busy_pj.for_each(counts.core_busy_cycles))
        .to_joules()
            + cores as f64 * params.core_leak_w_per_core * seconds,
        l1i_j: params.l1_pj.for_each(counts.l1i_accesses).to_joules(),
        l1d_j: params.l1_pj.for_each(counts.l1d_accesses).to_joules(),
        l2_j: params.l2_pj.for_each(counts.l2_accesses).to_joules(),
        l3_j: params.l3_pj.for_each(counts.l3_accesses).to_joules() + params.l3_leak_w * seconds,
        dram_j: params.dram_pj.for_each(counts.dram_accesses).to_joules()
            + params.dram_background_w * seconds,
        nop_j: 0.0,
        mzim_j: 0.0,
    };
    b.nop_j = network_energy_j(net, seconds, nop, params);
    if nop == NopKind::FlumenAccel {
        b.mzim_j = mzim_compute_energy_j(counts);
    }
    b
}

/// Network energy alone (used for the §5.2 synthetic comparison, E6).
pub fn network_energy_j(net: &NetStats, seconds: f64, nop: NopKind, params: &EnergyParams) -> f64 {
    let routers = net.link_busy.len().max(1) as f64;
    match nop {
        NopKind::Ring => {
            params.ring_bit_pj.for_each(net.bit_hops).to_joules()
                + params.elec_router_static_w * 16.0 * seconds
        }
        NopKind::Mesh => {
            params.mesh_bit_pj.for_each(net.bit_hops).to_joules()
                + params.elec_router_static_w * 16.0 * seconds
        }
        NopKind::OptBus => {
            params.photonic_bit_pj.for_each(net.bit_hops).to_joules()
                + params.optbus_static_w * seconds
        }
        NopKind::MzimCommOnly => {
            params.photonic_bit_pj.for_each(net.bit_hops).to_joules()
                + params.mzim_comm_static_w * seconds
        }
        NopKind::FlumenComm | NopKind::FlumenAccel => {
            params.photonic_bit_pj.for_each(net.bit_hops).to_joules()
                + (params.mzim_comm_static_w + params.flumen_dacadc_static_w) * seconds
        }
    }
    .max(routers * 0.0) // routers currently informational
}

/// MZIM computation energy from the run's offload activity, using the
/// fitted Fig. 12b model: per-sample conversion plus active-time static
/// power of the engaged partitions.
pub fn mzim_compute_energy_j(counts: &ActivityCounts) -> f64 {
    if counts.mzim_mvms == 0 {
        return 0.0;
    }
    // Average partition size from samples per MVM.
    let n = (counts.mzim_input_samples as f64 / counts.mzim_mvms as f64)
        .round()
        .max(2.0);
    let per_sample_pj = compute::E_CONV_PJ;
    let sample_j = per_sample_pj
        .for_each(counts.mzim_input_samples + counts.mzim_output_samples)
        .to_joules();
    // Static: phase DACs + laser over the cycles partitions were active
    // (the 2.5 GHz core clock).
    let active_ns = Cycles::new(counts.mzim_active_cycles).at(GigaHertz::new(2.5));
    let static_mw = n * n * compute::P_PHASE_DAC_MW
        + compute::COMPUTE_LAMBDAS as f64 * compute::flumen_laser_mw(n as usize);
    let static_j = (active_ns * static_mw).to_joules();
    sample_j + static_j
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts_sample() -> ActivityCounts {
        ActivityCounts {
            core_ops: 1_000_000,
            core_busy_cycles: 600_000,
            l1i_accesses: 1_000_000,
            l1d_accesses: 400_000,
            l2_accesses: 50_000,
            l3_accesses: 20_000,
            dram_accesses: 2_000,
            ..Default::default()
        }
    }

    fn net_sample() -> NetStats {
        let mut n = NetStats::new(16);
        n.bit_hops = 50_000_000;
        n.bits_injected = 20_000_000;
        n.cycles = 100_000;
        n
    }

    #[test]
    fn breakdown_totals_components() {
        let b = system_energy(
            &counts_sample(),
            &net_sample(),
            4e-5,
            64,
            NopKind::Mesh,
            &EnergyParams::paper_7nm(),
        );
        let sum = b.core_j + b.l1i_j + b.l1d_j + b.l2_j + b.l3_j + b.dram_j + b.nop_j + b.mzim_j;
        assert!((b.total_j() - sum).abs() < 1e-18);
        assert!(b.core_j > 0.0 && b.dram_j > 0.0 && b.nop_j > 0.0);
        assert_eq!(b.mzim_j, 0.0);
    }

    #[test]
    fn ring_nop_costs_more_than_mesh_for_same_traffic() {
        let p = EnergyParams::paper_7nm();
        let net = net_sample();
        let ring = network_energy_j(&net, 4e-5, NopKind::Ring, &p);
        let mesh = network_energy_j(&net, 4e-5, NopKind::Mesh, &p);
        assert!(ring > 2.0 * mesh);
    }

    #[test]
    fn flumen_carries_dacadc_overhead_over_pure_mzim() {
        let p = EnergyParams::paper_7nm();
        let net = net_sample();
        let flumen = network_energy_j(&net, 4e-5, NopKind::FlumenComm, &p);
        let pure = network_energy_j(&net, 4e-5, NopKind::MzimCommOnly, &p);
        assert!(flumen > pure);
        let diff = flumen - pure;
        assert!((diff - p.flumen_dacadc_static_w * 4e-5).abs() < 1e-12);
    }

    #[test]
    fn mzim_energy_zero_without_offload() {
        assert_eq!(mzim_compute_energy_j(&ActivityCounts::default()), 0.0);
    }

    #[test]
    fn mzim_energy_scales_with_samples() {
        let mut c = ActivityCounts {
            mzim_mvms: 100,
            mzim_input_samples: 800, // n = 8
            mzim_output_samples: 800,
            mzim_active_cycles: 10_000,
            ..Default::default()
        };
        let e1 = mzim_compute_energy_j(&c);
        c.mzim_input_samples *= 2;
        c.mzim_mvms *= 2;
        c.mzim_output_samples *= 2;
        let e2 = mzim_compute_energy_j(&c);
        assert!(e2 > e1);
    }

    #[test]
    fn edp_multiplies_energy_by_time() {
        let b = EnergyBreakdown {
            core_j: 2.0,
            ..Default::default()
        };
        assert!((b.edp(0.5) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mzim_offload_reduces_core_energy_share() {
        // Same total work; Flumen-A moves ops off the cores.
        let p = EnergyParams::paper_7nm();
        let net = net_sample();
        let baseline = system_energy(&counts_sample(), &net, 4e-5, 64, NopKind::Mesh, &p);
        let mut offloaded = counts_sample();
        offloaded.core_ops /= 2;
        offloaded.core_busy_cycles /= 2;
        offloaded.l1i_accesses /= 2;
        offloaded.mzim_mvms = 1_000;
        offloaded.mzim_input_samples = 8_000;
        offloaded.mzim_output_samples = 8_000;
        offloaded.mzim_active_cycles = 20_000;
        let accel = system_energy(&offloaded, &net, 2e-5, 64, NopKind::FlumenAccel, &p);
        assert!(accel.core_j < baseline.core_j);
        assert!(accel.mzim_j > 0.0);
        assert!(accel.total_j() < baseline.total_j());
    }
}

// JSON bridges (canonical serialized form; field names feed sweep job
// hashes and result files).
flumen_sim::json_struct!(EnergyParams {
    core_op_pj,
    core_busy_pj,
    l1_pj,
    l2_pj,
    l3_pj,
    dram_pj,
    mesh_bit_pj,
    ring_bit_pj,
    photonic_bit_pj,
    elec_router_static_w,
    optbus_static_w,
    mzim_comm_static_w,
    flumen_dacadc_static_w,
    core_leak_w_per_core,
    l3_leak_w,
    dram_background_w,
});

flumen_sim::json_struct!(EnergyBreakdown {
    core_j,
    l1i_j,
    l1d_j,
    l2_j,
    l3_j,
    dram_j,
    nop_j,
    mzim_j
});
