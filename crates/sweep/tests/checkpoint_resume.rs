//! A sweep job killed mid-run resumes from its checkpoint and produces
//! the *same content-addressed result* as an uninterrupted run.
//!
//! The interruption is fabricated the way a real one looks on disk: the
//! same simulation is driven partway and its snapshot written under the
//! job's content hash, as if the worker process died right after a
//! periodic checkpoint. The re-run must pick that checkpoint up, finish
//! the remaining cycles, produce bit-identical output (verified through
//! the canonical result JSON), and clean its checkpoints up. A checkpoint
//! that parses but does not restore, or whose envelope names another
//! snapshot version, is ignored: the job starts cold and still produces
//! the uninterrupted result.

use flumen::{CheckpointPolicy, RuntimeConfig, SystemTopology, TopologySim};
use flumen_sim::{Json, Snapshotable, SNAPSHOT_VERSION};
use flumen_sweep::hash::sha256_hex;
use flumen_sweep::{
    run_plan, BenchKind, BenchSize, BenchSpec, JobSpec, SweepOptions, SweepPlan, ToJson,
};
use flumen_trace::TraceHandle;
use flumen_workloads::Rotation3d;
use std::path::PathBuf;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("flumen-sweep-ckpt-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn reduced_cfg() -> RuntimeConfig {
    RuntimeConfig {
        max_cycles: 10_000_000,
        ..RuntimeConfig::paper()
    }
}

/// The one-job plan every test runs: Rotation3d on Flumen-A.
fn flumen_a_plan() -> (JobSpec, SweepPlan) {
    let spec = JobSpec::FullRun {
        bench: BenchSpec {
            kind: BenchKind::Rotation3d,
            size: BenchSize::Small,
        },
        topology: SystemTopology::FlumenA,
        cfg: reduced_cfg(),
    };
    let mut plan = SweepPlan::new();
    plan.push(spec.clone());
    (spec, plan)
}

/// The job's simulation driven to `cycle` and snapshotted there.
fn mid_run_snapshot(cycle: u64) -> (u64, Json) {
    let bench = Rotation3d::small();
    let cfg = reduced_cfg();
    let disabled = TraceHandle::disabled();
    let mut sim = TopologySim::new(&bench, SystemTopology::FlumenA, &cfg, disabled);
    sim.run_to(cycle);
    assert!(!sim.finished(), "checkpoint must land mid-run");
    (sim.cycle(), sim.snapshot())
}

#[test]
fn killed_job_resumes_to_the_same_result_hash() {
    let (spec, plan) = flumen_a_plan();

    // Uninterrupted reference run.
    let cache_a = tmp_dir("cache-a");
    let reference = run_plan(&plan, &SweepOptions::serial_in(cache_a.clone()));
    let ref_json = reference.results[0].to_json().to_canonical();
    let ref_cycles = reference.results[0].full_run().cycles;

    // Fabricate the kill: drive the identical simulation halfway and
    // leave its checkpoint on disk under the job's content hash.
    let ckpt_dir = tmp_dir("ckpts");
    let policy = CheckpointPolicy {
        dir: ckpt_dir.clone(),
        every_cycles: 1_000,
    };
    let key = spec.content_hash();
    let (cycle, state) = mid_run_snapshot(ref_cycles / 2);
    policy.write(&key, cycle, state).unwrap();
    assert_eq!(policy.files(&key).len(), 1);

    // Re-run with checkpointing on and a fresh cache, so the job really
    // executes and must resume rather than start cold or hit the cache.
    let cache_b = tmp_dir("cache-b");
    let resumed = run_plan(
        &plan,
        &SweepOptions {
            checkpoint: Some(policy.clone()),
            ..SweepOptions::serial_in(cache_b.clone())
        },
    );
    assert_eq!(resumed.executed(), 1);

    // Same spec → same job hash; resumed run → byte-identical result,
    // hence the same content-addressed result hash.
    assert_eq!(resumed.records[0].hash, reference.records[0].hash);
    let resumed_json = resumed.results[0].to_json().to_canonical();
    assert_eq!(
        sha256_hex(resumed_json.as_bytes()),
        sha256_hex(ref_json.as_bytes())
    );
    assert!(!resumed.results[0].full_run().truncated);

    // Completion cleared the job's checkpoints.
    assert!(policy.files(&key).is_empty());

    for d in [cache_a, cache_b, ckpt_dir] {
        let _ = std::fs::remove_dir_all(&d);
    }
}

#[test]
fn unrestorable_checkpoint_starts_cold() {
    let (spec, plan) = flumen_a_plan();
    let cache_ref = tmp_dir("cold-cache-ref");
    let reference = run_plan(&plan, &SweepOptions::serial_in(cache_ref.clone()));
    let ref_json = reference.results[0].to_json().to_canonical();
    let ref_cycles = reference.results[0].full_run().cycles;

    // A real mid-run snapshot whose network fails to restore after the
    // engine's caches already have, and the same snapshot intact but in
    // envelopes of the two earlier layouts' versions.
    let (cycle, state) = mid_run_snapshot(ref_cycles / 2);
    let Json::Obj(mut fields) = state.clone() else {
        panic!("a system snapshot is an object");
    };
    fields.insert("net".into(), Json::obj([]));
    let cases = [
        ("empty state", 1_000, Json::obj([]), SNAPSHOT_VERSION),
        ("empty net", cycle, Json::Obj(fields), SNAPSHOT_VERSION),
        ("version 1 envelope", cycle, state.clone(), 1),
        ("version 2 envelope", cycle, state, 2),
    ];

    let key = spec.content_hash();
    for (i, (what, cycle, state, version)) in cases.into_iter().enumerate() {
        let ckpt_dir = tmp_dir(&format!("cold-ckpts-{i}"));
        let policy = CheckpointPolicy {
            dir: ckpt_dir.clone(),
            every_cycles: 1_000,
        };
        policy.write(&key, cycle, state).unwrap();
        if version != SNAPSHOT_VERSION {
            let [file] = &policy.files(&key)[..] else {
                panic!("{what}: one checkpoint written");
            };
            let text = std::fs::read_to_string(file).unwrap();
            let Json::Obj(mut envelope) = Json::parse(&text).unwrap() else {
                panic!("{what}: an envelope is an object");
            };
            envelope.insert("version".into(), version.to_json());
            std::fs::write(file, Json::Obj(envelope).to_canonical()).unwrap();
        }
        assert_eq!(
            policy.load_latest(&key).is_some(),
            version == SNAPSHOT_VERSION,
            "{what}: only a current-version envelope validates"
        );

        let cache = tmp_dir(&format!("cold-cache-{i}"));
        let cold = run_plan(
            &plan,
            &SweepOptions {
                checkpoint: Some(policy.clone()),
                ..SweepOptions::serial_in(cache.clone())
            },
        );
        assert_eq!(cold.executed(), 1, "{what}");
        assert_eq!(
            cold.results[0].to_json().to_canonical(),
            ref_json,
            "{what}: cold start matches the uninterrupted run"
        );
        assert!(policy.files(&key).is_empty(), "{what}: checkpoint left");
        for d in [cache, ckpt_dir] {
            let _ = std::fs::remove_dir_all(&d);
        }
    }
    let _ = std::fs::remove_dir_all(&cache_ref);
}
