//! Hostile bytes for the sweep result cache, the one on-disk decoder.
//!
//! Two real entries are stored through `run_plan` — one tiny `NocPoint`
//! and one reduced full run. Each case then overwrites every byte of
//! each entry in turn with a random byte and serves the spec through a
//! one-job `run_plan`, whose lookup is [`ResultCache::load`]; a panic
//! there fails the test. For every mutation:
//!
//! * one that breaks the JSON (or its UTF-8), or changes the parsed
//!   `code_version`, `hash` or any part of `spec`, is a counted miss:
//!   `cache_hits` falls to 0 and the job re-simulates;
//! * every report carries the result of a fresh run.
//!
//! Known gap: an entry carries no digest of its result, so a mutation
//! that changes `result` and still decodes (a flipped digit, an edited
//! character of the benchmark name) is served as a hit. The walk counts
//! those cases and prints them rather than failing on them.

use flumen::{RuntimeConfig, SystemTopology};
use flumen_noc::harness::RunConfig;
use flumen_noc::traffic::TrafficPattern;
use flumen_sweep::{
    run_plan, BenchKind, BenchSize, BenchSpec, JobResult, JobSpec, Json, NetSpec, ResultCache,
    SweepOptions, SweepPlan, ToJson,
};
use proptest::prelude::*;

/// A NoC point small enough to re-simulate on every miss.
fn tiny_noc_point() -> JobSpec {
    JobSpec::NocPoint {
        net: NetSpec::Ring { nodes: 4 },
        pattern: TrafficPattern::UniformRandom,
        load: 0.2,
        cfg: RunConfig {
            warmup: 20,
            measure: 80,
            seed: 7,
            ..RunConfig::default()
        },
    }
}

/// The smallest benchmark on Flumen-A, which finishes in under a
/// thousand cycles.
fn reduced_full_run() -> JobSpec {
    JobSpec::FullRun {
        bench: BenchSpec {
            kind: BenchKind::Rotation3d,
            size: BenchSize::Small,
        },
        topology: SystemTopology::FlumenA,
        cfg: RuntimeConfig {
            max_cycles: 100_000,
            ..RuntimeConfig::paper()
        },
    }
}

/// One stored entry: its spec and cache, its bytes and parsed form, and
/// the canonical JSON of a fresh run's result.
struct Stored {
    spec: JobSpec,
    opts: SweepOptions,
    bytes: Vec<u8>,
    doc: Json,
    fresh: String,
}

fn canonical(r: &JobResult) -> String {
    r.to_json().to_canonical()
}

/// Runs `spec` once into an empty cache under a per-test directory.
fn store(spec: JobSpec, tag: &str) -> Stored {
    let dir = std::env::temp_dir().join(format!(
        "flumen-cache-mutation-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = SweepOptions::serial_in(dir.clone());
    let mut plan = SweepPlan::new();
    plan.push(spec.clone());
    let report = run_plan(&plan, &opts);
    assert_eq!(report.executed(), 1);
    let path = ResultCache::open(&dir).entry_path(&spec.content_hash());
    let bytes = std::fs::read(&path).expect("stored entry");
    let doc = Json::parse(std::str::from_utf8(&bytes).unwrap()).unwrap();
    Stored {
        spec,
        opts,
        bytes,
        doc,
        fresh: canonical(&report.results[0]),
    }
}

/// What the walk saw.
#[derive(Debug, Default)]
struct Tally {
    mutations: usize,
    misses: usize,
    /// Mutations of `result` that decoded and were served.
    served_edits: Vec<(usize, u8)>,
}

/// Whether `mutated` differs from `original` in a field a hit must
/// match: the parsed `code_version`, `hash` or `spec`.
fn keys_changed(original: &Json, mutated: &Json) -> bool {
    ["code_version", "hash", "spec"]
        .iter()
        .any(|k| original.get(k).ok() != mutated.get(k).ok())
}

/// Byte `pos`'s replacement in case `seed` (splitmix64).
fn byte_at(seed: u64, pos: usize) -> u8 {
    let mut z = seed.wrapping_add((pos as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) as u8
}

/// Overwrites each byte of `s`'s entry in turn with a different one and
/// serves the spec through `run_plan`, checking each outcome. Two
/// workers split the positions, each on its own copy of the cache.
fn walk(s: &Stored, seed: u64) -> Tally {
    const WORKERS: usize = 2;
    let parts: Vec<Tally> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..WORKERS)
            .map(|k| scope.spawn(move || walk_part(s, seed, k, WORKERS)))
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    let mut tally = Tally::default();
    for part in parts {
        tally.mutations += part.mutations;
        tally.misses += part.misses;
        tally.served_edits.extend(part.served_edits);
    }
    tally.served_edits.sort_unstable();
    tally
}

/// [`walk`] over positions `k`, `k + step`, … in a private cache copy.
fn walk_part(s: &Stored, seed: u64, k: usize, step: usize) -> Tally {
    let dir = s.opts.cache_dir.with_extension(format!("part{k}"));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = SweepOptions::serial_in(dir.clone());
    let path = ResultCache::open(&dir).entry_path(&s.spec.content_hash());
    let mut plan = SweepPlan::new();
    plan.push(s.spec.clone());
    let mut tally = Tally::default();
    for pos in (k..s.bytes.len()).step_by(step) {
        let mut mutated = s.bytes.clone();
        mutated[pos] = match byte_at(seed, pos) {
            b if b == s.bytes[pos] => !b,
            b => b,
        };
        let byte = mutated[pos];
        std::fs::write(&path, &mutated).unwrap();
        let report = run_plan(&plan, &opts);
        tally.mutations += 1;
        if report.cache_hits() == 0 {
            tally.misses += 1;
            let served = canonical(&report.results[0]);
            assert_eq!(served, s.fresh, "byte {byte:#04x} at {pos}");
            continue;
        }
        // A hit: the entry must still parse, with the stored keys intact.
        let at = format!("byte {byte:#04x} at {pos}: a hit");
        let parsed = std::str::from_utf8(&mutated)
            .ok()
            .and_then(|t| Json::parse(t).ok());
        let parsed = parsed.unwrap_or_else(|| panic!("{at} on a broken document"));
        assert!(!keys_changed(&s.doc, &parsed), "{at} on a changed key");
        if canonical(&report.results[0]) != s.fresh {
            let result_edit = s.doc.get("result").ok() != parsed.get("result").ok();
            assert!(result_edit, "{at} served a result no run produced");
            tally.served_edits.push((pos, byte));
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    tally
}

proptest! {
    // A case rewrites every byte of both entries, so one case covers
    // every position; the replacement bytes come from its seed.
    #![proptest_config(ProptestConfig::with_cases(1))]

    #[test]
    fn single_byte_mutations_never_panic(seed in any::<u64>()) {
        for (spec, tag) in [(tiny_noc_point(), "noc"), (reduced_full_run(), "full")] {
            let stored = store(spec, &format!("{tag}-{seed:x}"));
            let tally = walk(&stored, seed);
            let _ = std::fs::remove_dir_all(&stored.opts.cache_dir);
            // Known gap: no digest covers `result`, so these were served.
            println!(
                "{tag} entry, seed {seed:#x}: {} mutations, {} misses, {} decodable \
                 result edits served, first (position, byte): {:?}",
                tally.mutations,
                tally.misses,
                tally.served_edits.len(),
                &tally.served_edits[..tally.served_edits.len().min(8)],
            );
            prop_assert_eq!(tally.mutations, stored.bytes.len());
            prop_assert!(tally.misses > 0);
        }
    }
}

#[test]
fn unmutated_documents_decode() {
    for (spec, tag) in [(tiny_noc_point(), "noc"), (reduced_full_run(), "full")] {
        let stored = store(spec, &format!("{tag}-clean"));
        let entry = ResultCache::open(&stored.opts.cache_dir)
            .load(&stored.spec.content_hash())
            .expect("a stored entry loads");
        assert_eq!(entry.spec, stored.spec);
        assert_eq!(canonical(&entry.result), stored.fresh);
        let mut plan = SweepPlan::new();
        plan.push(stored.spec.clone());
        let report = run_plan(&plan, &stored.opts);
        assert_eq!(report.cache_hits(), 1, "{tag}");
        assert_eq!(canonical(&report.results[0]), stored.fresh);
        let _ = std::fs::remove_dir_all(&stored.opts.cache_dir);
    }
}
