//! Shared harness utilities for the figure/table regeneration binaries.
//!
//! Every `fig*`/`tab*`/`abl*` binary prints a human-readable table to
//! stdout and writes a CSV under `EXPERIMENTS-data/` so the results can be
//! plotted or diffed. `fig_all` runs the whole battery.

use flumen::scheduler::SchedulerParams;
use flumen::{ControlUnitParams, FullRunResult, RuntimeConfig, SystemTopology};
use flumen_noc::harness::RunConfig;
use flumen_noc::traffic::TrafficPattern;
use flumen_sweep::{
    run_plan, sink, BenchKind, BenchSize, BenchSpec, JobResult, JobSpec, NetSpec, SweepOptions,
    SweepPlan, SweepReport,
};
use flumen_system::SystemConfig;
use std::fs;
use std::path::PathBuf;

/// Directory where experiment CSVs land.
pub fn out_dir() -> PathBuf {
    let dir = std::env::var("FLUMEN_DATA_DIR").unwrap_or_else(|_| "EXPERIMENTS-data".into());
    let p = PathBuf::from(dir);
    fs::create_dir_all(&p).expect("create data dir");
    p
}

/// Writes a CSV file (headers + rows) into the data directory.
pub fn write_csv(name: &str, headers: &[&str], rows: &[Vec<String>]) {
    let mut s = headers.join(",") + "\n";
    for r in rows {
        s.push_str(&r.join(","));
        s.push('\n');
    }
    let path = out_dir().join(name);
    fs::write(&path, s).expect("write csv");
    println!("  → wrote {}", path.display());
}

/// Geometric mean.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Whether `--quick` was passed (reduced benchmark sizes for smoke runs).
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// The benchmark input size honouring `--quick`.
fn bench_size() -> BenchSize {
    if quick_mode() {
        BenchSize::Small
    } else {
        BenchSize::Paper
    }
}

/// One benchmark's spec honouring `--quick`.
pub fn bench_spec(kind: BenchKind) -> BenchSpec {
    BenchSpec {
        kind,
        size: bench_size(),
    }
}

/// A full-system run at `RuntimeConfig::paper()`, control unit edited by `tweak`.
fn paper_run(
    bench: BenchSpec,
    topology: SystemTopology,
    tweak: impl FnOnce(&mut ControlUnitParams),
) -> JobSpec {
    let mut cfg = RuntimeConfig::paper();
    tweak(&mut cfg.control);
    JobSpec::FullRun {
        bench,
        topology,
        cfg,
    }
}

/// The benchmark × topology plan behind Figs. 13–15 (benchmark outer,
/// topology inner — the row order every figure binary expects).
pub fn grid_plan() -> SweepPlan {
    let mut plan = SweepPlan::new();
    for bench in BenchSpec::all(bench_size()) {
        for topology in SystemTopology::all() {
            plan.push(paper_run(bench, topology, |_| {}));
        }
    }
    plan
}

/// Every simulated figure's plan, each distinct job once.
pub fn union_plan() -> SweepPlan {
    let plans = [
        grid_plan(),
        fig11_plan(),
        network_energy_plan(),
        torus_plan(),
        scheduler_plan(),
        reconfig_plan(),
        wdm_plan(),
        batch_plan(),
        system_scale_plan(),
    ];
    let mut union = SweepPlan::new();
    for job in plans.iter().flat_map(SweepPlan::jobs) {
        if !union.jobs().contains(job) {
            union.push(job.clone());
        }
    }
    union
}

/// Runs `plan` (environment-driven threads and cache), records it in the
/// manifest and prints its summary and a warning per truncated run.
pub fn run_sweep(name: &str, plan: &SweepPlan) -> SweepReport {
    let opts = SweepOptions {
        verbose: true,
        ..SweepOptions::from_env()
    };
    let report = run_plan(plan, &opts);
    sink::append_manifest(&out_dir(), name, &report);
    eprintln!(
        "  [sweep] {name}: {} jobs, {} cached, {} simulated, {:.0} ms on {} thread(s)",
        report.records.len(),
        report.cache_hits(),
        report.executed(),
        report.wall_ms,
        opts.threads,
    );
    for warning in truncation_warnings(&report.results) {
        eprintln!("  [warn] {warning}");
    }
    report
}

/// Runs the full benchmark × topology grid (the data behind Figs. 13–15)
/// through the parallel, cache-backed sweep engine.
pub fn run_grid() -> Vec<FullRunResult> {
    let report = run_sweep("grid", &grid_plan());
    report
        .results
        .iter()
        .map(|r| r.full_run().clone())
        .collect()
}

/// One line per full-system run that hit its cycle budget: its counters
/// describe an incomplete execution, so rows built from it are partial.
fn truncation_warnings(results: &[JobResult]) -> Vec<String> {
    results
        .iter()
        .filter_map(|r| match r {
            JobResult::FullRun(r) if r.truncated => Some(format!(
                "{} on {} truncated at {} cycles — figures using this row are partial",
                r.benchmark,
                r.topology.name(),
                r.cycles,
            )),
            _ => None,
        })
        .collect()
}

/// The distinct benchmark names of a grid, in first-appearance order
/// (shared by the Figs. 13–15 binaries).
pub fn bench_names(grid: &[FullRunResult]) -> Vec<String> {
    let mut names: Vec<String> = grid.iter().map(|r| r.benchmark.clone()).collect();
    names.dedup();
    names
}

/// Harness parameters of every synthetic-traffic plan, honouring `--quick`.
pub fn fig11_run_config() -> RunConfig {
    if quick_mode() {
        RunConfig {
            warmup: 300,
            measure: 2_000,
            ..RunConfig::default()
        }
    } else {
        RunConfig::default()
    }
}

/// The offered-load axis of Fig. 11 (0.05 … 0.50).
pub fn fig11_loads() -> Vec<f64> {
    (1..=10).map(|k| 0.05 * k as f64).collect()
}

/// The traffic patterns evaluated in Fig. 11.
pub fn fig11_patterns() -> [TrafficPattern; 3] {
    [
        TrafficPattern::UniformRandom,
        TrafficPattern::BitReversal,
        TrafficPattern::Shuffle,
    ]
}

/// Synthetic-traffic jobs under [`fig11_run_config`], pattern outer, load
/// middle, network inner; `stats` jobs also keep the network counters.
fn noc_plan(
    patterns: &[TrafficPattern],
    loads: &[f64],
    nets: &[NetSpec],
    stats: bool,
) -> SweepPlan {
    let mut plan = SweepPlan::new();
    for &pattern in patterns {
        for &load in loads {
            for &net in nets {
                let cfg = fig11_run_config();
                plan.push(if stats {
                    JobSpec::NocStats {
                        net,
                        pattern,
                        load,
                        cfg,
                    }
                } else {
                    JobSpec::NocPoint {
                        net,
                        pattern,
                        load,
                        cfg,
                    }
                });
            }
        }
    }
    plan
}

/// The Fig. 11 latency points, in the binary's table order.
pub fn fig11_plan() -> SweepPlan {
    noc_plan(&fig11_patterns(), &fig11_loads(), &NetSpec::fig11(), false)
}

/// The §5.2 network-energy points: Fig. 11's networks at four loads.
pub fn network_energy_plan() -> SweepPlan {
    let loads = [0.05, 0.1, 0.2, 0.3];
    noc_plan(&fig11_patterns(), &loads, &NetSpec::fig11(), true)
}

/// The torus comparison's offered-load axis (reduced under `--quick`).
pub fn torus_loads() -> Vec<f64> {
    if quick_mode() {
        vec![0.05, 0.20, 0.35]
    } else {
        (1..=8).map(|k| 0.05 * k as f64).collect()
    }
}

/// The two topologies of the torus comparison, table column order.
pub const TORUS_NETS: [NetSpec; 2] = [
    NetSpec::Mesh {
        width: 4,
        height: 4,
    },
    NetSpec::Torus {
        width: 4,
        height: 4,
    },
];

/// The mesh-vs-torus points under uniform random traffic.
pub fn torus_plan() -> SweepPlan {
    let uniform = [TrafficPattern::UniformRandom];
    noc_plan(&uniform, &torus_loads(), &TORUS_NETS, true)
}

/// The §3.4 points as (axis, value label, scheduler): τ, then η, then ζ.
pub fn scheduler_points() -> Vec<(&'static str, String, SchedulerParams)> {
    let paper = SchedulerParams::paper;
    let mut points = Vec::new();
    for tau in [25u64, 50, 100, 170, 250] {
        points.push(("tau", tau.to_string(), SchedulerParams { tau, ..paper() }));
    }
    for eta in [0.1f64, 0.3, 0.4, 0.55, 0.7] {
        points.push((
            "eta",
            format!("{eta:.2}"),
            SchedulerParams { eta, ..paper() },
        ));
    }
    for zeta in [0.125f64, 0.25, 0.5, 1.0] {
        points.push((
            "zeta",
            format!("{zeta:.3}"),
            SchedulerParams { zeta, ..paper() },
        ));
    }
    points
}

/// Flumen-A on `image_blur` at each of the [`scheduler_points`].
pub fn scheduler_plan() -> SweepPlan {
    let mut plan = SweepPlan::new();
    let bench = bench_spec(BenchKind::ImageBlur);
    for (_, _, scheduler) in scheduler_points() {
        plan.push(paper_run(bench, SystemTopology::FlumenA, |c| {
            c.scheduler = scheduler
        }));
    }
    plan
}

/// E14a's axis: the share of the per-block phase switch pipelining hides.
pub const RECONFIG_PIPELINES: [f64; 5] = [0.0, 0.5, 0.9, 0.95, 0.995];

/// The E14 studies' benchmarks; `--quick` keeps VGG16-FC only.
pub fn reconfig_benches() -> Vec<BenchSpec> {
    let count = if quick_mode() { 1 } else { 2 };
    let kinds = [BenchKind::Vgg16Fc, BenchKind::ImageBlur];
    kinds[..count]
        .iter()
        .map(|&kind| bench_spec(kind))
        .collect()
}

/// E14a per benchmark: mesh, then Flumen-A per [`RECONFIG_PIPELINES`]
/// value; then E14b per benchmark: Flumen-I, then Flumen-A.
pub fn reconfig_plan() -> SweepPlan {
    let mut plan = SweepPlan::new();
    for bench in reconfig_benches() {
        plan.push(paper_run(bench, SystemTopology::Mesh, |_| {}));
        for pipeline in RECONFIG_PIPELINES {
            plan.push(paper_run(bench, SystemTopology::FlumenA, |c| {
                c.config_pipeline = pipeline
            }));
        }
    }
    for bench in reconfig_benches() {
        for topology in [SystemTopology::FlumenI, SystemTopology::FlumenA] {
            plan.push(paper_run(bench, topology, |_| {}));
        }
    }
    plan
}

/// The WDM-width study's axis: wavelengths on the compute path.
pub const WDM_LAMBDAS: [usize; 4] = [1, 2, 4, 8];

/// `resnet50_conv3` on mesh, then on Flumen-A per [`WDM_LAMBDAS`] width.
pub fn wdm_plan() -> SweepPlan {
    let bench = bench_spec(BenchKind::ResnetConv3);
    let mut plan = SweepPlan::new();
    plan.push(paper_run(bench, SystemTopology::Mesh, |_| {}));
    for lambdas in WDM_LAMBDAS {
        plan.push(paper_run(bench, SystemTopology::FlumenA, |c| {
            c.compute_lambdas = lambdas
        }));
    }
    plan
}

/// The batched-inference study's axis.
pub const BATCHES: [usize; 4] = [1, 2, 4, 8];

/// Batched VGG16-FC on mesh, then on Flumen-A, per [`BATCHES`] entry.
pub fn batch_plan() -> SweepPlan {
    let mut plan = SweepPlan::new();
    for batch in BATCHES {
        let bench = bench_spec(BenchKind::Vgg16FcBatched { batch });
        for topology in [SystemTopology::Mesh, SystemTopology::FlumenA] {
            plan.push(paper_run(bench, topology, |_| {}));
        }
    }
    plan
}

/// The system sizes of the scaling study, in chiplets.
pub const SYSTEM_SCALE_CHIPLETS: [usize; 3] = [8, 16, 32];

/// `chiplets` four-core chiplets, the fabric scaled to `chiplets/2` inputs.
fn scaled_cfg(chiplets: usize) -> RuntimeConfig {
    RuntimeConfig {
        system: SystemConfig {
            cores: chiplets * 4,
            chiplets,
            ..SystemConfig::paper()
        },
        control: ControlUnitParams {
            fabric_n: chiplets / 2,
            chiplets_per_wire: 2,
            ..ControlUnitParams::paper()
        },
        max_cycles: 400_000_000,
        ..RuntimeConfig::paper()
    }
}

/// `resnet50_conv3` per chiplet count, on mesh then on Flumen-A.
pub fn system_scale_plan() -> SweepPlan {
    let bench = bench_spec(BenchKind::ResnetConv3);
    let mut plan = SweepPlan::new();
    for chiplets in SYSTEM_SCALE_CHIPLETS {
        for topology in [SystemTopology::Mesh, SystemTopology::FlumenA] {
            plan.push(JobSpec::FullRun {
                bench,
                topology,
                cfg: scaled_cfg(chiplets),
            });
        }
    }
    plan
}

/// Looks up a grid row.
pub fn grid_row<'a>(
    grid: &'a [FullRunResult],
    bench: &str,
    topo: SystemTopology,
) -> &'a FullRunResult {
    grid.iter()
        .find(|r| r.benchmark == bench && r.topology == topo)
        .expect("grid row exists")
}

/// Cycle-count speedup of `subject` over `baseline` (`baseline ÷
/// subject`) — the one blessed cycles→float site for the figure binaries.
pub fn speedup(baseline_cycles: u64, subject_cycles: u64) -> f64 {
    // flumen-check: allow(no-bare-cast) — dimensionless cycle ratio; the units cancel
    baseline_cycles as f64 / subject_cycles as f64
}

/// Simple fixed-width table printer.
#[derive(Debug, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Adds a row.
    pub fn row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(c.len());
                }
            }
        }
        let line = |cells: &[String]| {
            let s: Vec<String> = cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(8)))
                .collect();
            println!("  {}", s.join("  "));
        };
        line(&self.headers);
        for r in &self.rows {
            line(r);
        }
    }

    /// The rows as CSV-ready strings.
    pub fn csv_rows(&self) -> Vec<Vec<String>> {
        self.rows.clone()
    }

    /// The headers as &str slices for [`write_csv`].
    pub fn csv_headers(&self) -> Vec<&str> {
        self.headers.iter().map(|s| s.as_str()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_of_constants() {
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!(geomean(&[]).is_nan());
    }

    #[test]
    fn truncated_runs_are_flagged() {
        let run = |max_cycles| {
            JobSpec::FullRun {
                bench: BenchSpec {
                    kind: BenchKind::Rotation3d,
                    size: BenchSize::Small,
                },
                topology: SystemTopology::Mesh,
                cfg: RuntimeConfig {
                    max_cycles,
                    ..RuntimeConfig::paper()
                },
            }
            .execute()
        };
        let results = [run(1_000), run(RuntimeConfig::paper().max_cycles)];
        let warnings = truncation_warnings(&results);
        assert_eq!(warnings.len(), 1, "{warnings:?}");
        assert!(warnings[0].starts_with("rotation_3d on mesh truncated at 1000 cycles"));
    }

    #[test]
    fn table_formats() {
        let mut t = Table::new(&["a", "bench"]);
        t.row(vec!["1".into(), "x".into()]);
        assert_eq!(t.csv_headers(), vec!["a", "bench"]);
        assert_eq!(t.csv_rows().len(), 1);
        t.print();
    }
}
