//! Golden-snapshot regression test for the serve engine.
//!
//! Runs `JobMix::standard()` through `run_scenario` for short Poisson,
//! bursty and diurnal scenarios and compares, per scenario, the
//! `ServeReport::result_hash`, the disposition counters and the
//! `serve::batch` trace events (ids and `requests` args) against a
//! checked-in snapshot. The admission settings are tight enough that
//! requests both shed and time out, so those paths are pinned too.
//!
//! When a change *intentionally* shifts the numbers, regenerate with
//!
//! ```text
//! FLUMEN_UPDATE_GOLDENS=1 cargo test -p flumen-serve --test golden_serve
//! ```
//!
//! and commit the updated `crates/sweep/tests/goldens/serve_small.json`
//! together with the change that explains it.

use flumen_serve::{
    run_scenario, AdmissionConfig, ArrivalProcess, ClassPolicy, JobMix, ScenarioSpec, ServeConfig,
    ShedPolicy,
};
use flumen_sim::{Cycles, Json, ToJson};
use flumen_trace::RecordingTracer;
use std::path::PathBuf;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../sweep/tests/goldens/serve_small.json")
}

/// Two simulated workers behind an 8-deep queue that sheds the newest
/// arrival; every queued request expires after 6k cycles.
fn config() -> ServeConfig {
    let timeout = ClassPolicy {
        timeout: Some(Cycles::new(6_000)),
    };
    ServeConfig {
        admission: AdmissionConfig {
            queue_depth: 8,
            shed: ShedPolicy::Newest,
            mvm: timeout,
            traffic: timeout,
        },
        workers: 2,
        exec_threads: 2,
    }
}

/// One scenario per arrival family, each offering more than two
/// workers can serve for at least part of its horizon.
fn scenarios() -> Vec<ScenarioSpec> {
    let scenario = |name: &str, process| ScenarioSpec {
        name: name.into(),
        process,
        horizon: Cycles::new(400_000),
        clients: 3,
        seed: 0x601D,
        mix: JobMix::standard(),
    };
    vec![
        scenario("poisson", ArrivalProcess::Poisson { rate: 1_100.0 }),
        scenario(
            "bursty",
            ArrivalProcess::Bursty {
                base: 400.0,
                burst: 3_000.0,
                dwell_base: 60_000.0,
                dwell_burst: 20_000.0,
            },
        ),
        scenario(
            "diurnal",
            ArrivalProcess::Diurnal {
                trough: 200.0,
                peak: 1_800.0,
                period: 200_000.0,
            },
        ),
    ]
}

fn current_rows() -> Vec<Json> {
    let cfg = config();
    scenarios()
        .iter()
        .map(|spec| {
            let recorder = RecordingTracer::new();
            let report = run_scenario(spec, &cfg, None, &recorder.handle()).expect("serve");
            assert_eq!(
                recorder.dropped(),
                0,
                "{}: trace ring overflowed",
                spec.name
            );
            let batches: Vec<Json> = recorder
                .events()
                .iter()
                .filter(|e| e.name == "serve::batch")
                .map(|e| {
                    let requests = e
                        .args
                        .iter()
                        .find(|(k, _)| *k == "requests")
                        .map(|(_, v)| *v)
                        .expect("serve::batch carries a requests arg");
                    Json::obj([("id", e.id.to_json()), ("requests", requests.to_json())])
                })
                .collect();
            Json::obj([
                ("name", Json::Str(spec.name.clone())),
                ("result_hash", Json::Str(report.result_hash())),
                ("counters", report.counters.to_json()),
                ("batches", Json::Arr(batches)),
            ])
        })
        .collect()
}

#[test]
fn serve_scenarios_match_golden_snapshot() {
    let rows = current_rows();
    let path = golden_path();

    if std::env::var("FLUMEN_UPDATE_GOLDENS").map(|v| v == "1") == Ok(true) {
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
        "scenario list changed; regenerate the golden if intentional"
    );

    for (got, want) in rows.iter().zip(golden) {
        let name = want.get("name").unwrap().as_str().unwrap();
        for key in ["name", "result_hash", "counters", "batches"] {
            assert_eq!(
                got.get(key).unwrap().to_canonical(),
                want.get(key).unwrap().to_canonical(),
                "{name}: {key} drifted from golden"
            );
        }
    }

    // The snapshot must keep exercising the shed and timeout paths.
    let total = |key: &str| -> f64 {
        let count = |row: &Json| row.get("counters")?.get(key)?.as_f64();
        golden.iter().map(|row| count(row).unwrap()).sum()
    };
    assert!(total("shed") > 0.0, "no scenario sheds");
    assert!(total("timed_out") > 0.0, "no scenario times out");
}
