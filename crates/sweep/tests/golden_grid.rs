//! Golden-snapshot regression test for the Figs. 14/15 sweep grid.
//!
//! Runs a reduced benchmark × topology grid (two small workloads on all
//! five fabrics — the same plan shape the speedup/EDP figures use) and
//! compares the headline numbers per run against a checked-in snapshot:
//! cycle counts and packet/op totals exactly, derived floats (seconds,
//! energy) to 1e-9 relative tolerance.
//!
//! When a change *intentionally* shifts the numbers, regenerate with
//!
//! ```text
//! FLUMEN_UPDATE_GOLDENS=1 cargo test -p flumen-sweep --test golden_grid
//! ```
//!
//! and commit the updated `tests/goldens/grid_small.json` together with
//! the change that explains it.

use flumen::SystemTopology;
use flumen_sweep::{run_plan, BenchKind, BenchSize, BenchSpec, JobSpec, SweepOptions, SweepPlan};
use std::path::PathBuf;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/goldens")
        .join("grid_small.json")
}

/// The reduced grid: two structurally different workloads (dense MVM
/// stream vs. SVD-partitioned rotation) on every topology.
fn reduced_grid() -> SweepPlan {
    let cfg = flumen::RuntimeConfig::paper();
    let mut plan = SweepPlan::new();
    for kind in [BenchKind::ImageBlur, BenchKind::Rotation3d] {
        for topology in SystemTopology::all() {
            plan.push(JobSpec::FullRun {
                bench: BenchSpec {
                    kind,
                    size: BenchSize::Small,
                },
                topology,
                cfg: cfg.clone(),
            });
        }
    }
    plan
}

type Row = flumen_sweep::Json;

fn current_rows() -> Vec<Row> {
    use flumen_sweep::ToJson;
    let cfg = flumen::RuntimeConfig::paper();
    let dir = std::env::temp_dir().join(format!("flumen-golden-grid-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let report = run_plan(&reduced_grid(), &SweepOptions::serial_in(dir.clone()));
    let rows = report
        .results
        .iter()
        .map(|res| {
            let r = res.full_run();
            let mut row = flumen_sweep::Json::obj([
                ("bench", flumen_sweep::Json::Str(r.benchmark.clone())),
                (
                    "topology",
                    flumen_sweep::Json::Str(r.topology.name().to_string()),
                ),
                ("cycles", r.cycles.to_json()),
                ("core_ops", r.counts.core_ops.to_json()),
                ("nop_packets", r.counts.nop_packets.to_json()),
                ("delivered", r.net_stats.delivered.to_json()),
                ("seconds", r.seconds.to_json()),
                ("energy_j", r.energy.total_j().to_json()),
            ]);
            // Unit-suffixed headline keys (latency_ns, energy_pj, loss_db),
            // key names sourced from the flumen-units SUFFIX constants.
            if let (flumen_sweep::Json::Obj(map), flumen_sweep::Json::Obj(m)) =
                (&mut row, flumen_sweep::metrics::unit_metrics(r, &cfg))
            {
                map.extend(m);
            }
            row
        })
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    rows
}

fn rel_close(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol * a.abs().max(b.abs()).max(1e-300)
}

#[test]
fn reduced_grid_matches_golden_snapshot() {
    let rows = current_rows();
    let path = golden_path();

    if std::env::var("FLUMEN_UPDATE_GOLDENS").map(|v| v == "1") == Ok(true) {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        let mut text = flumen_sweep::Json::Arr(rows).to_canonical();
        text.push('\n');
        std::fs::write(&path, text).unwrap();
        eprintln!("  [golden] rewrote {}", path.display());
        return;
    }

    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); regenerate with FLUMEN_UPDATE_GOLDENS=1",
            path.display()
        )
    });
    let golden = flumen_sweep::Json::parse(&text).unwrap();
    let golden = golden.as_arr().unwrap();
    assert_eq!(
        golden.len(),
        rows.len(),
        "grid shape changed; regenerate the golden if intentional"
    );

    for (got, want) in rows.iter().zip(golden) {
        let label = format!(
            "{} on {}",
            want.get("bench").unwrap().as_str().unwrap(),
            want.get("topology").unwrap().as_str().unwrap()
        );
        for key in ["bench", "topology"] {
            assert_eq!(
                got.get(key).unwrap().as_str().unwrap(),
                want.get(key).unwrap().as_str().unwrap(),
                "{label}: row identity changed"
            );
        }
        // Integer observables must match exactly: the simulator is fully
        // deterministic, so any drift is a behaviour change.
        for key in ["cycles", "core_ops", "nop_packets", "delivered"] {
            assert_eq!(
                got.get(key).unwrap().as_u64().unwrap(),
                want.get(key).unwrap().as_u64().unwrap(),
                "{label}: {key} drifted from golden"
            );
        }
        // Derived floats get a tolerance so pure re-association in the
        // energy/time arithmetic does not count as a regression. The
        // unit-suffixed keys are built from the flumen-units SUFFIX
        // constants; `loss_db` is null on the electrical topologies.
        let latency_ns = flumen_sweep::metrics::latency_key();
        let energy_pj = flumen_sweep::metrics::energy_key();
        let loss_db = flumen_sweep::metrics::loss_key();
        for key in ["seconds", "energy_j", &latency_ns, &energy_pj, &loss_db] {
            let got_v = got.get(key).unwrap();
            let want_v = want.get(key).unwrap();
            if matches!(want_v, flumen_sweep::Json::Null) {
                assert_eq!(got_v, want_v, "{label}: {key} became non-null");
                continue;
            }
            let g = got_v.as_f64().unwrap();
            let w = want_v.as_f64().unwrap();
            assert!(
                rel_close(g, w, 1e-9),
                "{label}: {key} drifted from golden: {g} vs {w}"
            );
        }
    }
}
