//! Full-system runtime: one call runs a benchmark on a topology and
//! returns runtime, activity, network statistics and the energy breakdown
//! — the data behind paper Figs. 13/14/15.

use crate::control_unit::{ControlUnitParams, MzimControlUnit};
use flumen_noc::{CrossbarConfig, MzimCrossbar, NetStats, Network, OpticalBus, RoutedNetwork};
use flumen_power::{system_energy, EnergyBreakdown, EnergyParams, NopKind};
use flumen_sim::{Snapshot, Snapshotable};
use flumen_system::{
    ActivityCounts, CoreTask, ExternalServer, NullServer, RunResult, SystemConfig, SystemSim,
};
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
    let r = run_topology(bench, topology, cfg, tracer, ToCompletion(cfg.max_cycles));
    finish_result(bench, topology, cfg, r)
}

/// How an entry point runs the system that [`run_topology`] built for
/// it. A trait rather than a closure because the network and server types
/// differ per topology.
trait SimRunner {
    type Out;
    fn run<N, S>(self, sim: SystemSim<N, S>) -> Self::Out
    where
        N: Network + Snapshotable,
        S: ExternalServer<N> + Snapshotable;
}

/// Generates `bench`'s task queues for `topology`, builds the topology's
/// network and home-node server (the MZIM control unit on Flumen-A, a
/// [`NullServer`] elsewhere) with `tracer` installed, and hands the system
/// to `runner`.
fn run_topology<R: SimRunner>(
    bench: &dyn Benchmark,
    topology: SystemTopology,
    cfg: &RuntimeConfig,
    tracer: TraceHandle,
    runner: R,
) -> R::Out {
    let mode = match topology {
        SystemTopology::FlumenA => ExecMode::Offload,
        _ => ExecMode::Local,
    };
    let tasks = taskgen::generate(bench, &cfg.system, mode, &cfg.taskgen);

    let chiplets = cfg.system.chiplets;
    let crossbar = || MzimCrossbar::new(chiplets, CrossbarConfig::default()).expect("crossbar");
    match topology {
        SystemTopology::Ring => {
            let net = RoutedNetwork::new(
                flumen_noc::RoutedTopology::Ring { nodes: chiplets },
                flumen_noc::RoutedConfig::default(),
            )
            .expect("ring of ≥3 chiplets");
            assemble(net, NullServer::default(), tasks, cfg, tracer, runner)
        }
        SystemTopology::Mesh => {
            let (width, height) = mesh_dims(chiplets);
            let net = RoutedNetwork::new(
                flumen_noc::RoutedTopology::Mesh { width, height },
                flumen_noc::RoutedConfig::default(),
            )
            .expect("mesh of ≥2×2 chiplets");
            assemble(net, NullServer::default(), tasks, cfg, tracer, runner)
        }
        SystemTopology::OptBus => {
            let net = OpticalBus::new(chiplets, flumen_noc::BusConfig::default()).expect("optbus");
            assemble(net, NullServer::default(), tasks, cfg, tracer, runner)
        }
        SystemTopology::FlumenI => assemble(
            crossbar(),
            NullServer::default(),
            tasks,
            cfg,
            tracer,
            runner,
        ),
        SystemTopology::FlumenA => {
            let mut server = MzimControlUnit::new(cfg.control.clone());
            server.set_tracer(tracer.clone());
            assemble(crossbar(), server, tasks, cfg, tracer, runner)
        }
    }
}

fn assemble<N, S, R>(
    net: N,
    server: S,
    tasks: Vec<Vec<CoreTask>>,
    cfg: &RuntimeConfig,
    tracer: TraceHandle,
    runner: R,
) -> R::Out
where
    N: Network + Snapshotable,
    S: ExternalServer<N> + Snapshotable,
    R: SimRunner,
{
    let mut sim = SystemSim::new(cfg.system.clone(), net, server, tasks);
    sim.set_tracer(tracer);
    sim.set_trace_interval(cfg.trace_interval);
    runner.run(sim)
}

/// Runs the system to completion or the cycle budget, skipping idle spans.
struct ToCompletion(u64);

impl SimRunner for ToCompletion {
    type Out = RunResult;
    fn run<N, S>(self, sim: SystemSim<N, S>) -> RunResult
    where
        N: Network + Snapshotable,
        S: ExternalServer<N> + Snapshotable,
    {
        sim.run(self.0)
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

/// Where and how often a checkpointed run snapshots itself.
#[derive(Debug, Clone)]
pub struct CheckpointPolicy {
    /// Directory the checkpoint files live in (created on demand).
    pub dir: PathBuf,
    /// Configuration fingerprint stamped into every envelope — typically
    /// the sweep job's content hash, which commits to the full runtime
    /// configuration. A checkpoint written under a different key (or
    /// snapshot version) never restores.
    pub key: String,
    /// Snapshot interval in cycles (minimum 1).
    pub every_cycles: u64,
}

/// Runs `bench` on `topology`, writing a checkpoint every
/// `policy.every_cycles` cycles and resuming from the newest valid
/// checkpoint if one exists. Completion deletes the job's checkpoints.
///
/// Checkpoints are written atomically (temp file + rename), so a run
/// killed at any point — including mid-write — resumes from the last
/// complete snapshot and produces bit-identical results to an
/// uninterrupted run.
pub fn run_benchmark_checkpointed(
    bench: &dyn Benchmark,
    topology: SystemTopology,
    cfg: &RuntimeConfig,
    policy: &CheckpointPolicy,
    tracer: TraceHandle,
) -> io::Result<FullRunResult> {
    let runner = Checkpointed {
        policy,
        max_cycles: cfg.max_cycles,
        tracer: tracer.clone(),
    };
    let r = run_topology(bench, topology, cfg, tracer, runner)?;
    Ok(finish_result(bench, topology, cfg, r))
}

/// Steps the system cycle by cycle, resuming from and writing checkpoints
/// under `policy`.
struct Checkpointed<'a> {
    policy: &'a CheckpointPolicy,
    max_cycles: u64,
    tracer: TraceHandle,
}

impl SimRunner for Checkpointed<'_> {
    type Out = io::Result<RunResult>;
    fn run<N, S>(self, mut sim: SystemSim<N, S>) -> io::Result<RunResult>
    where
        N: Network + Snapshotable,
        S: ExternalServer<N> + Snapshotable,
    {
        let Checkpointed {
            policy,
            max_cycles,
            tracer,
        } = self;
        if let Some(snap) = policy.load_latest() {
            sim.restore(&snap.state)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.0))?;
            let now = sim.cycle();
            tracer.emit(|| TraceEvent::instant(TraceCategory::System, "resume", now, 0));
        }

        // Step manually so the simulation can be snapshotted mid-flight;
        // the final consuming `run` call finds the system already finished
        // (or already out of budget) and only performs result
        // finalization, so the outcome is identical to an uninterrupted
        // `SystemSim::run`.
        let every = policy.every_cycles.max(1);
        while !sim.finished() && sim.cycle() < max_cycles {
            sim.step();
            let now = sim.cycle();
            if now.is_multiple_of(every) && !sim.finished() && now < max_cycles {
                policy.write(now, sim.snapshot())?;
                tracer.emit(|| TraceEvent::instant(TraceCategory::System, "checkpoint", now, 0));
            }
        }
        let result = sim.run(max_cycles);
        policy.clear()?;
        Ok(result)
    }
}

impl CheckpointPolicy {
    /// Checkpoint file name: fixed-width decimal cycle so lexicographic
    /// order is cycle order.
    fn file(&self, cycle: u64) -> PathBuf {
        self.dir.join(format!("{}.{cycle:020}.ckpt.json", self.key))
    }

    /// This job's checkpoint files, oldest first.
    pub fn files(&self) -> Vec<PathBuf> {
        let prefix = format!("{}.", self.key);
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

    /// The newest checkpoint whose envelope validates (version and key
    /// match). Unreadable or foreign files are skipped, not fatal: a
    /// half-written or stale checkpoint simply falls back to the previous
    /// one (or a cold start).
    pub fn load_latest(&self) -> Option<Snapshot> {
        self.files().into_iter().rev().find_map(|path| {
            let text = std::fs::read_to_string(&path).ok()?;
            let j = flumen_sim::Json::parse(&text).ok()?;
            Snapshot::from_json(&j, &self.key).ok()
        })
    }

    /// Atomically writes component `state` captured at `cycle` as this
    /// job's newest checkpoint, then prunes older ones.
    pub fn write(&self, cycle: u64, state: flumen_sim::Json) -> io::Result<()> {
        std::fs::create_dir_all(&self.dir)?;
        let snap = Snapshot::new(self.key.clone(), flumen_units::Cycles::new(cycle), state);
        let path = self.file(cycle);
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, snap.to_json().to_canonical())?;
        std::fs::rename(&tmp, &path)?;
        // Prune everything older: the file just renamed into place is
        // complete, so earlier checkpoints only waste space.
        for old in self.files() {
            if old != path {
                let _ = std::fs::remove_file(old);
            }
        }
        Ok(())
    }

    /// Removes every checkpoint of this job (called on completion).
    pub fn clear(&self) -> io::Result<()> {
        for path in self.files() {
            std::fs::remove_file(path)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
            key: "job".into(),
            every_cycles: 1000,
        };
        let reference = run_benchmark(&bench, SystemTopology::FlumenA, &cfg);

        // Interrupted run: drive the same simulation partway by hand and
        // leave its checkpoint on disk, as if the process died right after
        // writing it.
        {
            let tasks = taskgen::generate(&bench, &cfg.system, ExecMode::Offload, &cfg.taskgen);
            let net = MzimCrossbar::new(cfg.system.chiplets, CrossbarConfig::default()).unwrap();
            let server = MzimControlUnit::new(cfg.control.clone());
            let mut sim = SystemSim::new(cfg.system.clone(), net, server, tasks);
            for _ in 0..reference.cycles / 2 {
                sim.step();
            }
            assert!(!sim.finished(), "checkpoint must land mid-run");
            policy.write(sim.cycle(), sim.snapshot()).unwrap();
        }

        let resumed = run_benchmark_checkpointed(
            &bench,
            SystemTopology::FlumenA,
            &cfg,
            &policy,
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
        assert!(policy.files().is_empty());
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
