//! `bench_perf` — the end-to-end performance trajectory: cold wall time
//! of the Figs. 14/15 grid per topology, with one paired regression gate.
//!
//! Every job runs directly (no sweep cache) on two paths:
//!
//! * **run** — [`run_benchmark`], whose engine jumps over idle cycles;
//! * **step** — [`TopologySim::new`] followed by a plain
//!   [`TopologySim::step`] loop, the per-cycle reference.
//!
//! It writes `BENCH_perf.json` (repo root, or `FLUMEN_BENCH_OUT`) with one
//! row per [`SystemTopology`]:
//!
//! * `wall_ms` — best-of-rounds wall time of the topology's column (all
//!   benchmarks) on the run path;
//! * `cycles` — simulated cycles summed over the column;
//! * `mcycles_per_s` — `cycles` over `wall_ms`;
//! * `step_wall_ms` — best-of-rounds wall time on the step path;
//! * `step_ratio` — the gate's estimator, below;
//! * `cycles_match` — whether both paths simulated the same cycles on
//!   every pair.
//!
//! **The gate.** The rounds are interleaved (every round visits every
//! topology), and each round times both paths back to back on every
//! benchmark, so machine drift hits both alike. The verdict is the best
//! per-round ratio `step_wall / wall`: idle skipping must never lose to
//! stepping (`≥ 1.0`) on any topology, and both paths must simulate the
//! same cycles on every pair. Best-of-rounds is one-sided in the right
//! way: a path that is really slower loses in every round, while noise
//! needs only one clean round to clear.
//!
//! Full mode runs `paper_benchmarks()` for 2 rounds; `--quick` runs
//! `small_benchmarks()` for 5 rounds (the CI configuration).

use flumen::{run_benchmark, RuntimeConfig, SystemTopology, TopologySim};
use flumen_bench::{quick_mode, Table};
use flumen_trace::TraceHandle;
use flumen_units::Cycles;
use flumen_workloads::{paper_benchmarks, small_benchmarks};
use std::time::Instant;

/// Idle skipping must never lose to stepping every cycle.
const STEP_RATIO_FLOOR: f64 = 1.0;

/// One topology's column of the grid, measured over every round.
struct Row {
    topology: SystemTopology,
    cycles: u64,
    /// Best-of-rounds wall time of the run path, ms.
    wall_ms: f64,
    /// Best-of-rounds wall time of the step path, ms.
    step_wall_ms: f64,
    /// Best per-round `step_wall / wall`.
    step_ratio: f64,
    /// Whether both paths simulated the same cycles on every pair.
    cycles_match: bool,
}

impl Row {
    fn mcycles_per_s(&self) -> f64 {
        mcycles_per_s(self.cycles, self.wall_ms)
    }

    /// NaN ratios (a zero-duration fluke) count as regressed rather than
    /// silently passing the gate.
    fn regressed(&self) -> bool {
        !(self.step_ratio >= STEP_RATIO_FLOOR && self.cycles_match)
    }
}

fn mcycles_per_s(cycles: u64, wall_ms: f64) -> f64 {
    Cycles::new(cycles).count_f64() / (wall_ms * 1e3)
}

/// Integral values (cycle counts, the regression flag) print as integers.
fn num(v: f64) -> String {
    if v.fract() == 0.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.3}")
    }
}

fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

fn main() {
    let quick = quick_mode();
    let (benches, rounds) = if quick {
        (small_benchmarks(), 5)
    } else {
        (paper_benchmarks(), 2)
    };
    let cfg = RuntimeConfig::paper();

    let mut rows: Vec<Row> = SystemTopology::all()
        .into_iter()
        .map(|topology| Row {
            topology,
            cycles: 0,
            wall_ms: f64::INFINITY,
            step_wall_ms: f64::INFINITY,
            step_ratio: 0.0,
            cycles_match: true,
        })
        .collect();
    for _ in 0..rounds {
        for row in rows.iter_mut() {
            let (mut wall, mut step, mut cycles) = (0.0, 0.0, 0);
            for bench in &benches {
                let t0 = Instant::now();
                let run = run_benchmark(bench.as_ref(), row.topology, &cfg);
                wall += ms_since(t0);
                let t0 = Instant::now();
                let disabled = TraceHandle::disabled();
                let mut sim = TopologySim::new(bench.as_ref(), row.topology, &cfg, disabled);
                while !sim.finished() && sim.cycle() < cfg.max_cycles {
                    sim.step();
                }
                let stepped = sim.run(cfg.max_cycles);
                step += ms_since(t0);
                row.cycles_match &= run.cycles == stepped.cycles;
                cycles += run.cycles;
            }
            row.cycles = cycles;
            row.wall_ms = row.wall_ms.min(wall);
            row.step_wall_ms = row.step_wall_ms.min(step);
            row.step_ratio = row.step_ratio.max(step / wall);
        }
    }

    let mut table = Table::new(&[
        "topology",
        "cycles",
        "wall_ms",
        "Mcycles/s",
        "step_wall_ms",
        "step/wall",
    ]);
    for r in &rows {
        table.row(vec![
            r.topology.name().into(),
            r.cycles.to_string(),
            format!("{:.1}", r.wall_ms),
            format!("{:.3}", r.mcycles_per_s()),
            format!("{:.1}", r.step_wall_ms),
            format!("{:.2}", r.step_ratio),
        ]);
    }
    table.print();

    let regressions: Vec<&str> = rows
        .iter()
        .filter(|r| r.regressed())
        .map(|r| r.topology.name())
        .collect();
    let total_cycles: u64 = rows.iter().map(|r| r.cycles).sum();
    let total_wall_ms: f64 = rows.iter().map(|r| r.wall_ms).sum();
    let derived = [
        ("cycles", Cycles::new(total_cycles).count_f64()),
        ("wall_ms", total_wall_ms),
        ("mcycles_per_s", mcycles_per_s(total_cycles, total_wall_ms)),
        ("step_wall_ms", rows.iter().map(|r| r.step_wall_ms).sum()),
        (
            "min_step_ratio",
            rows.iter()
                .map(|r| r.step_ratio)
                .fold(f64::INFINITY, f64::min),
        ),
        // 1 when any topology failed the gate; the binary then exits
        // non-zero, failing the CI bench-perf-gate job.
        ("regression", if regressions.is_empty() { 0.0 } else { 1.0 }),
    ];

    let results: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"topology\": \"{}\", \"cycles\": {}, \"wall_ms\": {:.3}, \
                 \"mcycles_per_s\": {:.3}, \"step_wall_ms\": {:.3}, \"step_ratio\": {:.3}, \
                 \"cycles_match\": {}}}",
                r.topology.name(),
                r.cycles,
                r.wall_ms,
                r.mcycles_per_s(),
                r.step_wall_ms,
                r.step_ratio,
                r.cycles_match
            )
        })
        .collect();
    let derived_json: Vec<String> = derived
        .iter()
        .map(|(k, v)| format!("    \"{k}\": {}", num(*v)))
        .collect();
    let json = format!(
        "{{\n  \"suite\": \"flumen-perf\",\n  \"mode\": \"{}\",\n  \"rounds\": {rounds},\n  \
         \"results\": [\n{}\n  ],\n  \"regressions\": {regressions:?},\n  \
         \"derived\": {{\n{}\n  }}\n}}\n",
        if quick { "quick" } else { "full" },
        results.join(",\n"),
        derived_json.join(",\n"),
    );

    let out = std::env::var("FLUMEN_BENCH_OUT").unwrap_or_else(|_| "BENCH_perf.json".into());
    std::fs::write(&out, &json).expect("write BENCH_perf.json");
    println!("\n  → wrote {out}");
    for (k, v) in derived {
        println!("  {k}: {}", num(v));
    }
    assert!(
        regressions.is_empty(),
        "idle-skip gate failed on {regressions:?}: step/wall below {STEP_RATIO_FLOOR} \
         or cycles differ between the paths"
    );
}
