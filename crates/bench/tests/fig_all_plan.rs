//! `fig_all`'s union plan covers every figure binary's plan.
//!
//! `fig_all --quick` runs twice into one fresh data directory. On the
//! cold run, the `fig_all` sweep is the only one that simulates: every
//! figure binary's own sweep finds all its jobs cached. On the warm run
//! nothing simulates, and every CSV comes out byte-identical. A source
//! scan keeps new figure binaries from simulating outside a plan.

use flumen_sweep::Json;
use std::collections::BTreeMap;
use std::fs;
use std::path::Path;
use std::process::Command;

/// Runs `fig_all --quick` into `dir` and returns its stderr.
fn fig_all_quick(dir: &Path) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_fig_all"))
        .arg("--quick")
        .env("FLUMEN_DATA_DIR", dir)
        .env("FLUMEN_SWEEP_THREADS", "2")
        .env_remove("FLUMEN_SWEEP_FORCE")
        .output()
        .expect("spawn fig_all");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(out.status.success(), "fig_all failed:\n{stderr}");
    stderr
}

/// `(sweep name, executed jobs)` for every manifest line.
fn manifest(dir: &Path) -> Vec<(String, usize)> {
    fs::read_to_string(dir.join("manifest.jsonl"))
        .expect("manifest written")
        .lines()
        .map(|line| {
            let j = Json::parse(line).expect("manifest line parses");
            (
                j.get("sweep").unwrap().as_str().unwrap().to_string(),
                j.get("executed").unwrap().as_usize().unwrap(),
            )
        })
        .collect()
}

/// Every CSV in `dir`, by file name.
fn csvs(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "csv"))
        .map(|p| {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            (name, fs::read(&p).unwrap())
        })
        .collect()
}

#[test]
fn union_plan_leaves_every_figure_sweep_cached() {
    let dir = std::env::temp_dir().join(format!("flumen-fig-all-plan-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);

    let stderr = fig_all_quick(&dir);
    assert!(!stderr.contains("[warn]"), "a run truncated:\n{stderr}");
    let cold = manifest(&dir);
    let first = csvs(&dir);
    assert_eq!(cold[0].0, "fig_all");
    assert!(cold[0].1 > 0, "the cold union plan simulated nothing");
    assert!(cold.len() > 1, "no figure binary ran a sweep");
    for (sweep, executed) in &cold[1..] {
        assert_eq!(
            *executed, 0,
            "{sweep} simulated jobs outside the union plan"
        );
    }

    fig_all_quick(&dir);
    let warm = &manifest(&dir)[cold.len()..];
    assert_eq!(warm.len(), cold.len());
    for (sweep, executed) in warm {
        assert_eq!(*executed, 0, "{sweep} simulated on a warm cache");
    }
    let second = csvs(&dir);
    assert!(first.len() >= 20, "only {} CSVs written", first.len());
    assert_eq!(
        first.keys().collect::<Vec<_>>(),
        second.keys().collect::<Vec<_>>()
    );
    for (name, bytes) in &first {
        assert!(second[name] == *bytes, "{name} changed between runs");
    }

    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn figure_binaries_simulate_only_through_plans() {
    let bins = Path::new(env!("CARGO_MANIFEST_DIR")).join("src/bin");
    for entry in fs::read_dir(bins).unwrap() {
        let path = entry.unwrap().path();
        // `bench_perf` times the simulator itself, so it must call it directly.
        if path.file_name().unwrap() == "bench_perf.rs" {
            continue;
        }
        let src = fs::read_to_string(&path).unwrap();
        for call in ["run_benchmark(", "measure_point("] {
            assert!(
                !src.contains(call),
                "{} calls {call}: declare the runs as a plan in flumen_bench",
                path.display()
            );
        }
    }
}
