//! Golden-snapshot regression test for the NoC sweep (Fig. 11 and the
//! composed torus).
//!
//! Runs a small `JobSpec::NocStats` grid — the four Fig. 11 networks plus
//! the 4×4 torus, under uniform-random and transpose traffic at a light
//! and a heavy load — and compares every integer `NetStats` counter of
//! the measurement window exactly against a checked-in snapshot. The
//! simulator is fully deterministic, so any drift is a behaviour change.
//!
//! When a change *intentionally* shifts the numbers, regenerate with
//!
//! ```text
//! FLUMEN_UPDATE_GOLDENS=1 cargo test -p flumen-sweep --test golden_noc
//! ```
//!
//! and commit the updated `tests/goldens/noc_small.json` together with
//! the change that explains it.

use flumen_noc::harness::RunConfig;
use flumen_noc::traffic::TrafficPattern;
use flumen_sweep::{run_plan, JobSpec, Json, NetSpec, SweepOptions, SweepPlan, ToJson};
use std::path::PathBuf;

/// The `NetStats` fields compared exactly, in serialization order.
const STAT_KEYS: [&str; 10] = [
    "injected",
    "delivered",
    "latency_sum",
    "latency_max",
    "latency_hist",
    "bits_injected",
    "bit_hops",
    "link_busy",
    "reconfigurations",
    "cycles",
];

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/goldens")
        .join("noc_small.json")
}

/// Every Fig. 11 network plus the composed torus, two patterns, two
/// loads, with a short measurement window.
fn reduced_grid() -> SweepPlan {
    let cfg = RunConfig {
        warmup: 200,
        measure: 1_000,
        ..RunConfig::default()
    };
    let mut nets = NetSpec::fig11().to_vec();
    nets.push(NetSpec::Torus {
        width: 4,
        height: 4,
    });
    let mut plan = SweepPlan::new();
    for net in nets {
        for pattern in [TrafficPattern::UniformRandom, TrafficPattern::Transpose] {
            for load in [0.05, 0.3] {
                plan.push(JobSpec::NocStats {
                    net,
                    pattern,
                    load,
                    cfg: cfg.clone(),
                });
            }
        }
    }
    plan
}

fn current_rows() -> Vec<Json> {
    let dir = std::env::temp_dir().join(format!("flumen-golden-noc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let plan = reduced_grid();
    let report = run_plan(&plan, &SweepOptions::serial_in(dir.clone()));
    let rows = plan
        .jobs()
        .iter()
        .zip(&report.results)
        .map(|(job, res)| {
            let JobSpec::NocStats {
                net, pattern, load, ..
            } = job
            else {
                unreachable!("the grid holds only NocStats jobs")
            };
            Json::obj([
                ("net", Json::Str(net.name().to_string())),
                ("pattern", Json::Str(pattern.name().to_string())),
                ("load", load.to_json()),
                ("stats", res.noc_stats().stats.to_json()),
            ])
        })
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    rows
}

#[test]
fn noc_grid_matches_golden_snapshot() {
    let rows = current_rows();
    let path = golden_path();

    if std::env::var("FLUMEN_UPDATE_GOLDENS").map(|v| v == "1") == Ok(true) {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        let mut text = Json::Arr(rows).to_canonical();
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
    let golden = Json::parse(&text).unwrap();
    let golden = golden.as_arr().unwrap();
    assert_eq!(
        golden.len(),
        rows.len(),
        "grid shape changed; regenerate the golden if intentional"
    );

    for (got, want) in rows.iter().zip(golden) {
        let label = format!(
            "{} / {} / load {}",
            want.get("net").unwrap().as_str().unwrap(),
            want.get("pattern").unwrap().as_str().unwrap(),
            want.get("load").unwrap().as_f64().unwrap()
        );
        for key in ["net", "pattern", "load"] {
            assert_eq!(
                got.get(key).unwrap(),
                want.get(key).unwrap(),
                "{label}: row identity changed"
            );
        }
        let (got, want) = (got.get("stats").unwrap(), want.get("stats").unwrap());
        for key in STAT_KEYS {
            assert_eq!(
                got.get(key).unwrap().to_canonical(),
                want.get(key).unwrap().to_canonical(),
                "{label}: {key} drifted from golden"
            );
        }
    }
}
