//! Full-system runtime: one call runs a benchmark on a topology and
//! returns runtime, activity, network statistics and the energy breakdown
//! — the data behind paper Figs. 13/14/15.

use crate::control_unit::{ControlUnitParams, MzimControlUnit};
use flumen_noc::{CrossbarConfig, MzimCrossbar, NetStats, OpticalBus, RoutedNetwork};
use flumen_power::{system_energy, EnergyBreakdown, EnergyParams, NopKind};
use flumen_sim::{Snapshot, Snapshotable};
use flumen_system::{ActivityCounts, NullServer, RunResult, SystemConfig, SystemSim};
use flumen_trace::{TraceCategory, TraceEvent, TraceHandle};
use flumen_workloads::taskgen::{self, ExecMode, TaskGenConfig};
use flumen_workloads::Benchmark;
use std::io;
use std::path::PathBuf;

/// The five evaluated system configurations (paper §4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemTopology {
    /// Electrical ring NoP.
    Ring,
    /// Electrical mesh NoP.
    Mesh,
    /// Optical bus NoP.
    OptBus,
    /// Flumen fabric, communication only.
    FlumenI,
    /// Flumen fabric with compute acceleration.
    FlumenA,
}

impl SystemTopology {
    /// All five configurations in the paper's order.
    pub fn all() -> [SystemTopology; 5] {
        [
            SystemTopology::Ring,
            SystemTopology::Mesh,
            SystemTopology::OptBus,
            SystemTopology::FlumenI,
            SystemTopology::FlumenA,
        ]
    }

    /// Display name (paper Fig. 13 abbreviations).
    pub fn name(&self) -> &'static str {
        match self {
            SystemTopology::Ring => "ring",
            SystemTopology::Mesh => "mesh",
            SystemTopology::OptBus => "optbus",
            SystemTopology::FlumenI => "flumen_i",
            SystemTopology::FlumenA => "flumen_a",
        }
    }

    /// The matching energy model.
    pub fn nop_kind(&self) -> NopKind {
        match self {
            SystemTopology::Ring => NopKind::Ring,
            SystemTopology::Mesh => NopKind::Mesh,
            SystemTopology::OptBus => NopKind::OptBus,
            SystemTopology::FlumenI => NopKind::FlumenComm,
            SystemTopology::FlumenA => NopKind::FlumenAccel,
        }
    }
}

/// End-to-end runtime configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeConfig {
    /// System (cores/caches) parameters.
    pub system: SystemConfig,
    /// Task-generation tuning.
    pub taskgen: TaskGenConfig,
    /// MZIM control unit parameters (Flumen-A).
    pub control: ControlUnitParams,
    /// Energy model parameters.
    pub energy: EnergyParams,
    /// Simulation cycle budget.
    pub max_cycles: u64,
    /// Link-utilization sampling window (0 = off).
    pub trace_interval: u64,
}

/// The most-square factorization of `n` for a mesh layout.
///
/// # Panics
///
/// Panics when `n` has no `≥2 × ≥2` factorization (e.g. primes).
fn mesh_dims(n: usize) -> (usize, usize) {
    let mut w = (n as f64).sqrt() as usize;
    while w >= 2 {
        if n.is_multiple_of(w) && n / w >= 2 {
            return (w, n / w);
        }
        w -= 1;
    }
    panic!("{n} chiplets cannot form a ≥2×2 mesh");
}

impl RuntimeConfig {
    /// The paper's configuration.
    pub fn paper() -> Self {
        RuntimeConfig {
            system: SystemConfig::paper(),
            taskgen: TaskGenConfig::default(),
            control: ControlUnitParams::paper(),
            energy: EnergyParams::paper_7nm(),
            max_cycles: 80_000_000,
            trace_interval: 0,
        }
    }
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig::paper()
    }
}

/// Result of one benchmark × topology run.
#[derive(Debug, Clone)]
pub struct FullRunResult {
    /// Which topology ran.
    pub topology: SystemTopology,
    /// Benchmark name.
    pub benchmark: String,
    /// Runtime in core cycles.
    pub cycles: u64,
    /// Runtime in seconds.
    pub seconds: f64,
    /// Whether the run hit `max_cycles` before the system quiesced. A
    /// truncated run's counters describe an incomplete execution; result
    /// tables and sweep records flag it rather than silently reporting
    /// the numbers as a finished benchmark.
    pub truncated: bool,
    /// Activity counters.
    pub counts: ActivityCounts,
    /// Network statistics.
    pub net_stats: NetStats,
    /// Energy breakdown.
    pub energy: EnergyBreakdown,
    /// Link-utilization trace (when enabled).
    pub utilization_trace: Vec<f64>,
}

impl FullRunResult {
    /// Total energy, joules.
    pub fn total_energy_j(&self) -> f64 {
        self.energy.total_j()
    }

    /// Energy-delay product, J·s.
    pub fn edp(&self) -> f64 {
        self.energy.edp(self.seconds)
    }

    /// Mean packet latency over the run, cycles.
    pub fn avg_packet_latency(&self) -> Option<f64> {
        self.net_stats.avg_latency()
    }
}

/// Runs `bench` on `topology`.
///
/// A simulation that exceeds `cfg.max_cycles` without quiescing (deadlock
/// or an undersized cycle budget) returns with
/// [`FullRunResult::truncated`] set instead of panicking; consumers decide
/// whether a partial run is usable.
pub fn run_benchmark(
    bench: &dyn Benchmark,
    topology: SystemTopology,
    cfg: &RuntimeConfig,
) -> FullRunResult {
    run_benchmark_traced(bench, topology, cfg, TraceHandle::disabled())
}

/// Runs `bench` on `topology` with a structured-event tracer installed:
/// the system engine, attached network and (for Flumen-A) the MZIM
/// control unit all emit through `tracer`. With the disabled handle this
/// is exactly [`run_benchmark`].
pub fn run_benchmark_traced(
    bench: &dyn Benchmark,
    topology: SystemTopology,
    cfg: &RuntimeConfig,
    tracer: TraceHandle,
) -> FullRunResult {
    let r = TopologySim::new(bench, topology, cfg, tracer).run(cfg.max_cycles);
    finish_result(bench, topology, cfg, r)
}

/// A full-system simulator of any [`SystemTopology`]: one variant per
/// concrete network and home-node server pairing.
#[derive(Debug)]
pub enum TopologySim {
    /// Ring or mesh ([`SystemTopology::Ring`], [`SystemTopology::Mesh`]).
    Routed(SystemSim<RoutedNetwork, NullServer>),
    /// Optical bus ([`SystemTopology::OptBus`]).
    Bus(SystemSim<OpticalBus, NullServer>),
    /// Flumen fabric, communication only ([`SystemTopology::FlumenI`]).
    Crossbar(SystemSim<MzimCrossbar, NullServer>),
    /// Flumen fabric with the MZIM control unit as home-node server
    /// ([`SystemTopology::FlumenA`]).
    FlumenA(Box<SystemSim<MzimCrossbar, MzimControlUnit>>),
}

/// Evaluates `$body` with `$sim` bound to the variant's `SystemSim`.
macro_rules! each_sim {
    ($self:expr, $sim:ident => $body:expr) => {
        match $self {
            TopologySim::Routed($sim) => $body,
            TopologySim::Bus($sim) => $body,
            TopologySim::Crossbar($sim) => $body,
            TopologySim::FlumenA($sim) => $body,
        }
    };
}

impl TopologySim {
    /// Generates `bench`'s task queues for `topology` (cores offload on
    /// Flumen-A and compute locally elsewhere), builds the topology's
    /// network and home-node server (the MZIM control unit on Flumen-A, a
    /// [`NullServer`] elsewhere), installs `tracer` and sets the
    /// utilization sampling window to `cfg.trace_interval`.
    ///
    /// # Panics
    ///
    /// Panics when `cfg.system.chiplets` cannot form the topology's
    /// network (a ring needs ≥ 3 chiplets, a mesh a `≥2 × ≥2`
    /// factorization, the crossbar at most 64).
    pub fn new(
        bench: &dyn Benchmark,
        topology: SystemTopology,
        cfg: &RuntimeConfig,
        tracer: TraceHandle,
    ) -> Self {
        let mode = match topology {
            SystemTopology::FlumenA => ExecMode::Offload,
            _ => ExecMode::Local,
        };
        let tasks = taskgen::generate(bench, &cfg.system, mode, &cfg.taskgen);
        let chiplets = cfg.system.chiplets;
        let (sys, null) = (cfg.system.clone(), NullServer::default);
        let routed = |topo| {
            RoutedNetwork::new(topo, flumen_noc::RoutedConfig::default()).expect("routed network")
        };
        let crossbar = || MzimCrossbar::new(chiplets, CrossbarConfig::default()).expect("crossbar");
        let mut sim = match topology {
            SystemTopology::Ring => {
                let ring = routed(flumen_noc::RoutedTopology::Ring { nodes: chiplets });
                TopologySim::Routed(SystemSim::new(sys, ring, null(), tasks))
            }
            SystemTopology::Mesh => {
                let (width, height) = mesh_dims(chiplets);
                let mesh = routed(flumen_noc::RoutedTopology::Mesh { width, height });
                TopologySim::Routed(SystemSim::new(sys, mesh, null(), tasks))
            }
            SystemTopology::OptBus => {
                let bus = OpticalBus::new(chiplets, flumen_noc::BusConfig::default());
                TopologySim::Bus(SystemSim::new(sys, bus.expect("optbus"), null(), tasks))
            }
            SystemTopology::FlumenI => {
                TopologySim::Crossbar(SystemSim::new(sys, crossbar(), null(), tasks))
            }
            SystemTopology::FlumenA => {
                let mut server = MzimControlUnit::new(cfg.control.clone());
                server.set_tracer(tracer.clone());
                TopologySim::FlumenA(Box::new(SystemSim::new(sys, crossbar(), server, tasks)))
            }
        };
        each_sim!(&mut sim, s => {
            s.set_tracer(tracer);
            s.set_trace_interval(cfg.trace_interval);
        });
        sim
    }

    /// Advances the whole system by one cycle ([`SystemSim::step`], the
    /// per-cycle reference).
    pub fn step(&mut self) {
        each_sim!(self, s => s.step())
    }

    /// Whether every core has retired its queue and all traffic drained.
    pub fn finished(&self) -> bool {
        each_sim!(self, s => s.finished())
    }

    /// Current cycle.
    pub fn cycle(&self) -> u64 {
        each_sim!(self, s => s.cycle())
    }

    /// Runs on the idle-skipping loop until the system finishes or cycle
    /// `stop` is reached, whichever comes first ([`SystemSim::run_to`]);
    /// the system can be snapshotted there and run on.
    pub fn run_to(&mut self, stop: u64) {
        each_sim!(self, s => s.run_to(stop))
    }

    /// The end of the quiet span starting at the current cycle, if any
    /// ([`SystemSim::quiet_until`]).
    pub fn quiet_until(&self) -> Option<u64> {
        each_sim!(self, s => s.quiet_until())
    }

    /// Crosses `cycles` cycles of a quiet span in one jump
    /// ([`SystemSim::advance_quiet`]).
    pub fn advance_quiet(&mut self, cycles: u64) {
        each_sim!(self, s => s.advance_quiet(cycles))
    }

    /// Runs until finished or `max_cycles` and returns the result
    /// ([`SystemSim::run`]).
    pub fn run(self, max_cycles: u64) -> RunResult {
        each_sim!(self, s => s.run(max_cycles))
    }
}

impl Snapshotable for TopologySim {
    fn snapshot(&self) -> flumen_sim::Json {
        each_sim!(self, s => s.snapshot())
    }

    fn restore(&mut self, j: &flumen_sim::Json) -> Result<(), flumen_sim::JsonError> {
        each_sim!(self, s => s.restore(j))
    }
}

fn finish_result(
    bench: &dyn Benchmark,
    topology: SystemTopology,
    cfg: &RuntimeConfig,
    r: RunResult,
) -> FullRunResult {
    let seconds = cfg.system.cycles_to_seconds(r.cycles);
    let energy = system_energy(
        &r.counts,
        &r.net_stats,
        seconds,
        cfg.system.cores,
        topology.nop_kind(),
        &cfg.energy,
    );
    FullRunResult {
        topology,
        benchmark: bench.name().to_string(),
        cycles: r.cycles,
        seconds,
        truncated: r.truncated,
        counts: r.counts,
        net_stats: r.net_stats,
        energy,
        utilization_trace: r.utilization_trace,
    }
}

/// Runs a benchmark on a photonic crossbar with a reduced wavelength count
/// (Fig. 1's bandwidth sensitivity: 16/32/64 λ ↔ 64/128/256 bits/cycle),
/// recording the link-utilization trace.
pub fn run_utilization_trace(
    bench: &dyn Benchmark,
    lambdas: usize,
    trace_interval: u64,
    cfg: &RuntimeConfig,
) -> FullRunResult {
    let bits_per_cycle = (lambdas * 4) as u32; // 10 Gbps/λ at 2.5 GHz
    let net = MzimCrossbar::new(
        cfg.system.chiplets,
        CrossbarConfig {
            bits_per_cycle,
            ..CrossbarConfig::default()
        },
    )
    .expect("16-node crossbar");
    let tasks = taskgen::generate(bench, &cfg.system, ExecMode::Local, &cfg.taskgen);
    let mut sim = SystemSim::new(cfg.system.clone(), net, NullServer::default(), tasks);
    sim.set_trace_interval(trace_interval);
    let r = sim.run(cfg.max_cycles);
    finish_result(bench, SystemTopology::FlumenI, cfg, r)
}

/// Where and how often checkpointed runs snapshot themselves.
#[derive(Debug, Clone)]
pub struct CheckpointPolicy {
    /// Directory the checkpoint files live in (created on demand).
    pub dir: PathBuf,
    /// Snapshot interval in cycles (minimum 1).
    pub every_cycles: u64,
}

/// Runs `bench` on `topology`, writing a checkpoint every
/// `policy.every_cycles` cycles and resuming from the newest valid
/// checkpoint if one exists. Completion deletes the job's checkpoints.
///
/// `key` names the job's checkpoints and is stamped into every envelope —
/// typically the sweep job's content hash, which commits to the full
/// runtime configuration. A checkpoint written under a different key (or
/// snapshot version) never restores, and one whose state does not restore
/// onto this configuration is ignored: the run starts cold.
///
/// The run skips idle spans between checkpoints and stops on each
/// multiple of the interval, so snapshots land on the same cycles, with
/// the same bytes, as a run stepped cycle by cycle. Checkpoints are
/// written atomically (temp file + rename), so a run killed at any point —
/// including mid-write — resumes from the last complete snapshot and
/// produces bit-identical results to an uninterrupted run.
pub fn run_benchmark_checkpointed(
    bench: &dyn Benchmark,
    topology: SystemTopology,
    cfg: &RuntimeConfig,
    policy: &CheckpointPolicy,
    key: &str,
    tracer: TraceHandle,
) -> io::Result<FullRunResult> {
    let build = || TopologySim::new(bench, topology, cfg, tracer.clone());
    let mut sim = build();
    if let Some(snap) = policy.load_latest(key) {
        if sim.restore(&snap.state).is_ok() {
            let now = sim.cycle();
            tracer.emit(|| TraceEvent::instant(TraceCategory::System, "resume", now, 0));
        } else {
            // A failed restore can leave caches or the network half
            // restored, so the cold start needs a fresh system.
            sim = build();
        }
    }

    // Stop on every multiple of the interval to snapshot; the final
    // `run` finds the system finished (or out of budget) and only
    // finalizes the result, as an uninterrupted run would.
    let (every, max_cycles) = (policy.every_cycles.max(1), cfg.max_cycles);
    while !sim.finished() && sim.cycle() < max_cycles {
        let stop = (sim.cycle() / every + 1)
            .saturating_mul(every)
            .min(max_cycles);
        sim.run_to(stop);
        let now = sim.cycle();
        if now.is_multiple_of(every) && !sim.finished() && now < max_cycles {
            policy.write(key, now, sim.snapshot())?;
            tracer.emit(|| TraceEvent::instant(TraceCategory::System, "checkpoint", now, 0));
        }
    }
    let r = sim.run(max_cycles);
    policy.clear(key)?;
    Ok(finish_result(bench, topology, cfg, r))
}

impl CheckpointPolicy {
    /// Checkpoint file name: fixed-width decimal cycle so lexicographic
    /// order is cycle order.
    fn file(&self, key: &str, cycle: u64) -> PathBuf {
        self.dir.join(format!("{key}.{cycle:020}.ckpt.json"))
    }

    /// The checkpoint files of job `key`, oldest first.
    pub fn files(&self, key: &str) -> Vec<PathBuf> {
        let prefix = format!("{key}.");
        let mut found: Vec<PathBuf> = std::fs::read_dir(&self.dir)
            .into_iter()
            .flatten()
            .flatten()
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with(&prefix) && n.ends_with(".ckpt.json"))
            })
            .collect();
        found.sort();
        found
    }

    /// Job `key`'s newest checkpoint whose envelope validates (version and
    /// key match). Unreadable or foreign files are skipped, not fatal: a
    /// half-written or stale checkpoint simply falls back to the previous
    /// one (or a cold start).
    pub fn load_latest(&self, key: &str) -> Option<Snapshot> {
        self.files(key).into_iter().rev().find_map(|path| {
            let text = std::fs::read_to_string(&path).ok()?;
            let j = flumen_sim::Json::parse(&text).ok()?;
            Snapshot::from_json(&j, key).ok()
        })
    }

    /// Atomically writes component `state` captured at `cycle` as job
    /// `key`'s newest checkpoint, then prunes its older ones.
    pub fn write(&self, key: &str, cycle: u64, state: flumen_sim::Json) -> io::Result<()> {
        std::fs::create_dir_all(&self.dir)?;
        let snap = Snapshot::new(key.to_string(), flumen_units::Cycles::new(cycle), state);
        let path = self.file(key, cycle);
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, snap.to_json().to_canonical())?;
        std::fs::rename(&tmp, &path)?;
        // Prune everything older: the file just renamed into place is
        // complete, so earlier checkpoints only waste space.
        for old in self.files(key) {
            if old != path {
                let _ = std::fs::remove_file(old);
            }
        }
        Ok(())
    }

    /// Removes every checkpoint of job `key` (called on completion).
    pub fn clear(&self, key: &str) -> io::Result<()> {
        for path in self.files(key) {
            std::fs::remove_file(path)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flumen_sim::Cycles;
    use flumen_workloads::Rotation3d;

    #[test]
    fn topology_names_and_kinds_are_distinct() {
        let names: std::collections::HashSet<&str> =
            SystemTopology::all().iter().map(|t| t.name()).collect();
        assert_eq!(names.len(), 5);
        assert_eq!(SystemTopology::FlumenA.nop_kind(), NopKind::FlumenAccel);
        assert_eq!(SystemTopology::Mesh.nop_kind(), NopKind::Mesh);
    }

    #[test]
    fn paper_config_is_consistent() {
        let cfg = RuntimeConfig::paper();
        assert_eq!(cfg.system.chiplets, 16);
        assert_eq!(
            cfg.control.fabric_n * cfg.control.chiplets_per_wire,
            cfg.system.chiplets
        );
        assert!(cfg.max_cycles > 1_000_000);
    }

    #[test]
    fn result_accessors_are_consistent() {
        let cfg = RuntimeConfig {
            max_cycles: 10_000_000,
            ..RuntimeConfig::paper()
        };
        let r = run_benchmark(&Rotation3d::small(), SystemTopology::Mesh, &cfg);
        assert!((r.edp() - r.total_energy_j() * r.seconds).abs() < 1e-18);
        assert!((r.seconds - r.cycles as f64 / 2.5e9).abs() < 1e-15);
        assert_eq!(r.topology, SystemTopology::Mesh);
        assert_eq!(r.benchmark, "rotation_3d");
    }

    #[test]
    fn truncation_is_surfaced_not_fatal() {
        let cfg = RuntimeConfig {
            max_cycles: 50,
            ..RuntimeConfig::paper()
        };
        let r = run_benchmark(&Rotation3d::small(), SystemTopology::FlumenA, &cfg);
        assert!(r.truncated);
        assert_eq!(r.cycles, 50);
    }

    #[test]
    fn checkpointed_run_resumes_identically() {
        let cfg = RuntimeConfig {
            max_cycles: 10_000_000,
            ..RuntimeConfig::paper()
        };
        let bench = Rotation3d::small();
        let dir = std::env::temp_dir().join(format!("flumen-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let policy = CheckpointPolicy {
            dir: dir.clone(),
            every_cycles: 1000,
        };
        let reference = run_benchmark(&bench, SystemTopology::FlumenA, &cfg);

        // Interrupted run: drive the same simulation partway and leave its
        // checkpoint on disk, as if the process died right after writing it.
        {
            let disabled = TraceHandle::disabled();
            let mut sim = TopologySim::new(&bench, SystemTopology::FlumenA, &cfg, disabled);
            sim.run_to(reference.cycles / 2);
            assert!(!sim.finished(), "checkpoint must land mid-run");
            policy.write("job", sim.cycle(), sim.snapshot()).unwrap();
        }

        let resumed = run_benchmark_checkpointed(
            &bench,
            SystemTopology::FlumenA,
            &cfg,
            &policy,
            "job",
            TraceHandle::disabled(),
        )
        .unwrap();
        assert!(!resumed.truncated);
        assert_eq!(resumed.cycles, reference.cycles);
        assert_eq!(resumed.counts, reference.counts);
        assert_eq!(resumed.seconds.to_bits(), reference.seconds.to_bits());
        assert_eq!(
            resumed.total_energy_j().to_bits(),
            reference.total_energy_j().to_bits()
        );
        assert_eq!(resumed.net_stats.delivered, reference.net_stats.delivered);
        assert_eq!(
            resumed.net_stats.latency_sum,
            reference.net_stats.latency_sum
        );
        // Completion removed the job's checkpoints.
        assert!(policy.files("job").is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_files_are_keyed_per_job() {
        let dir = std::env::temp_dir().join(format!("flumen-ckpt-keys-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let policy = CheckpointPolicy {
            dir: dir.clone(),
            every_cycles: 5_000,
        };
        let state = |n: u64| flumen_sim::Json::obj([("n", flumen_sim::ToJson::to_json(&n))]);
        policy.write("abc123", 5_000, state(1)).unwrap();
        policy.write("other", 5_000, state(2)).unwrap();
        policy.write("abc123", 10_000, state(3)).unwrap();
        // One directory; each job sees only its own newest checkpoint.
        let files = policy.files("abc123");
        assert_eq!(files.len(), 1, "older checkpoint pruned");
        assert!(files[0].starts_with(&dir));
        let latest = policy.load_latest("abc123").unwrap();
        assert_eq!(latest.cycle, Cycles::new(10_000));
        assert_eq!(latest.state, state(3));
        assert_eq!(policy.load_latest("other").unwrap().state, state(2));
        policy.clear("abc123").unwrap();
        assert!(policy.files("abc123").is_empty());
        assert_eq!(policy.files("other").len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_interval_controls_sampling() {
        let mut cfg = RuntimeConfig {
            max_cycles: 10_000_000,
            ..RuntimeConfig::paper()
        };
        cfg.trace_interval = 0;
        let r0 = run_benchmark(&Rotation3d::small(), SystemTopology::FlumenI, &cfg);
        assert!(r0.utilization_trace.is_empty());
        cfg.trace_interval = 100;
        let r1 = run_benchmark(&Rotation3d::small(), SystemTopology::FlumenI, &cfg);
        assert!(!r1.utilization_trace.is_empty());
    }
}

// JSON bridges (canonical serialized form; field names feed sweep job
// hashes and result files). Topologies serialize as their established
// display names.
impl flumen_sim::ToJson for SystemTopology {
    fn to_json(&self) -> flumen_sim::Json {
        flumen_sim::Json::Str(self.name().to_string())
    }
}

impl flumen_sim::FromJson for SystemTopology {
    fn from_json(j: &flumen_sim::Json) -> Result<Self, flumen_sim::JsonError> {
        let name = j.as_str()?;
        SystemTopology::all()
            .into_iter()
            .find(|t| t.name() == name)
            .ok_or_else(|| flumen_sim::JsonError(format!("unknown topology {name:?}")))
    }
}

flumen_sim::json_struct!(RuntimeConfig {
    system,
    taskgen,
    control,
    energy,
    max_cycles,
    trace_interval
});

flumen_sim::json_struct!(FullRunResult {
    topology,
    benchmark,
    cycles,
    seconds,
    truncated,
    counts,
    net_stats,
    energy,
    utilization_trace,
});
