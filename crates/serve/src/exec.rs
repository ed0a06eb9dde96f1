//! Deduplicated parallel execution of request payloads.
//!
//! The serve engine separates the *queueing model* (deterministic,
//! single-threaded, sim-time) from *payload execution* (wall-clock,
//! parallel). Payloads are pure functions of their [`JobSpec`] — every
//! job carries its own seed — so requests sharing a spec share one
//! execution, and the worker count can only change how fast the table
//! fills, never what it contains. That is the property the
//! serial-vs-parallel determinism tests pin down.
//!
//! Jobs run as checkpointable `flumen-sim` work items: with a
//! [`CheckpointPolicy`] attached, a full-system payload periodically
//! snapshots under its content hash and a restarted worker resumes it
//! bit-identically (see `tests/resume.rs`).

use flumen::CheckpointPolicy;
use flumen_sim::{Cycles, ToJson};
use flumen_sweep::hash::sha256_hex;
use flumen_sweep::{JobResult, JobSpec};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// The memoized outcome of one distinct payload.
#[derive(Debug, Clone)]
pub struct Payload {
    /// SHA-256 over the result's canonical JSON — the per-request
    /// result hash recorded for completed requests, which share it.
    pub result_hash: Arc<str>,
    /// Simulated service demand: how long one worker is occupied
    /// serving a request with this payload.
    pub service: Cycles,
}

/// Content-hash-keyed table of executed payloads.
#[derive(Debug, Default)]
pub struct PayloadTable {
    map: BTreeMap<String, Payload>,
}

impl PayloadTable {
    /// Looks up a payload by job content hash.
    pub fn get(&self, hash: &str) -> Option<&Payload> {
        self.map.get(hash)
    }

    /// Number of distinct payloads executed.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// Simulated service demand of a finished payload: a full-system run
/// occupies a worker for its measured runtime; a traffic measurement
/// occupies it for the harness's warmup + measure window. Clamped to at
/// least one cycle so completions always move time forward.
fn service_of(spec: &JobSpec, result: &JobResult) -> Cycles {
    let raw = match (spec, result) {
        (_, JobResult::FullRun(r)) => r.cycles,
        (JobSpec::NocPoint { cfg, .. }, JobResult::NocPoint(_))
        | (JobSpec::NocStats { cfg, .. }, JobResult::NocStats(_)) => cfg.warmup + cfg.measure,
        // A traffic result can only come from the matching traffic spec;
        // keep the fallback total anyway.
        (_, JobResult::NocPoint(_)) | (_, JobResult::NocStats(_)) => 1,
    };
    Cycles::new(raw.max(1))
}

/// The distinct payloads among `specs` as `(content hash, spec)` pairs in
/// first-seen order, plus each input's index into that list.
///
/// A spec that is `==` to one already listed reuses its pair unhashed:
/// every type inside [`JobSpec`] derives `PartialEq`, and the canonical
/// JSON prints `0.0` and `-0.0` alike, so equal specs serialize to the
/// same bytes and hence hash alike. Only a spec matching no listed one is
/// hashed, once per occurrence; if its hash is already listed it maps to
/// that pair. That is the NaN case: a spec holding a NaN is never `==`
/// to anything, yet its clones share one hash and so one payload.
pub(crate) fn distinct_payloads<'a>(
    specs: impl IntoIterator<Item = &'a JobSpec>,
) -> (Vec<(String, &'a JobSpec)>, Vec<usize>) {
    let mut distinct: Vec<(String, &JobSpec)> = Vec::new();
    let index = specs
        .into_iter()
        .map(|spec| {
            if let Some(i) = distinct.iter().position(|(_, seen)| *seen == spec) {
                return i;
            }
            let hash = spec.content_hash();
            distinct
                .iter()
                .position(|(seen, _)| *seen == hash)
                .unwrap_or_else(|| {
                    distinct.push((hash, spec));
                    distinct.len() - 1
                })
        })
        .collect();
    (distinct, index)
}

/// Executes every distinct job among `specs` and returns the memo table.
///
/// Work is deduplicated by [`distinct_payloads`] (each distinct spec
/// hashed once) and drained from a shared queue by `threads` scoped
/// workers (the same hand-rolled pool shape as `flumen_sweep::run_plan`
/// — no async runtime exists in this tree).
/// With `checkpoint` set, full-system jobs checkpoint under their
/// content hash and resume from the newest snapshot that restores.
///
/// # Panics
///
/// Propagates payload panics (a payload that cannot execute is a bug in
/// the spec, not an admission-control condition) and checkpoint I/O
/// failures.
pub fn execute_payloads<'a>(
    specs: impl IntoIterator<Item = &'a JobSpec>,
    threads: usize,
    checkpoint: Option<&CheckpointPolicy>,
) -> PayloadTable {
    // Dedup in first-seen order so the work list is deterministic.
    let (distinct, _) = distinct_payloads(specs);

    let threads = threads.max(1).min(distinct.len().max(1));
    let next = Mutex::new(0usize);
    let done: Mutex<Vec<Option<(String, Payload)>>> = Mutex::new(vec![None; distinct.len()]);

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = {
                    let mut n = next.lock().unwrap();
                    let i = *n;
                    if i >= distinct.len() {
                        return;
                    }
                    *n += 1;
                    i
                };
                let (hash, spec) = &distinct[i];
                let result = spec.execute_with(checkpoint);
                let payload = Payload {
                    result_hash: sha256_hex(result.to_json().to_canonical().as_bytes()).into(),
                    service: service_of(spec, &result),
                };
                done.lock().unwrap()[i] = Some((hash.clone(), payload));
            });
        }
    });

    let mut map = BTreeMap::new();
    for (hash, payload) in done.into_inner().unwrap().into_iter().flatten() {
        map.insert(hash, payload);
    }
    PayloadTable { map }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flumen_noc::harness::RunConfig;
    use flumen_noc::traffic::TrafficPattern;
    use flumen_sweep::NetSpec;
    use proptest::prelude::*;
    use rand::Rng;

    fn noc_job(seed: u64) -> JobSpec {
        noc_job_at(0.1, seed)
    }

    fn noc_job_at(load: f64, seed: u64) -> JobSpec {
        JobSpec::NocPoint {
            net: NetSpec::Ring { nodes: 8 },
            pattern: TrafficPattern::UniformRandom,
            load,
            cfg: RunConfig {
                warmup: 100,
                measure: 400,
                seed,
                ..RunConfig::default()
            },
        }
    }

    /// Payloads a request list draws from: distinct seeds, both zeros
    /// (equal specs), NaN loads (equal hashes, never `==`), full runs.
    fn pool() -> Vec<JobSpec> {
        let full = |eta| {
            let mut job = crate::JobMix::standard().choices()[0].1.clone();
            if let JobSpec::FullRun { cfg, .. } = &mut job {
                cfg.control.scheduler.eta = eta;
            }
            job
        };
        vec![
            noc_job(1),
            noc_job(2),
            noc_job_at(0.0, 1),
            noc_job_at(-0.0, 1),
            noc_job_at(f64::NAN, 1),
            noc_job_at(f64::NAN, 2),
            full(0.0),
            full(-0.0),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every input maps to a pair carrying its own content hash, and
        /// the pairs are exactly a naive first-seen dedup by hash.
        #[test]
        fn distinct_payloads_match_naive_dedup_by_hash(
            seed in any::<u64>(),
            mask in 1u32..256,
            len in 0usize..48,
        ) {
            // A small mix: the pool members selected by `mask`, each
            // request holding its own clone.
            let mix: Vec<JobSpec> = pool()
                .into_iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, spec)| spec)
                .collect();
            let mut rng = flumen_sim::SimRng::seed_from_u64(seed);
            let specs: Vec<JobSpec> = (0..len)
                .map(|_| mix[rng.gen_range(0..mix.len())].clone())
                .collect();

            let (distinct, index) = distinct_payloads(&specs);
            prop_assert_eq!(index.len(), specs.len());
            for (spec, &k) in specs.iter().zip(&index) {
                prop_assert_eq!(&distinct[k].0, &spec.content_hash());
            }

            let mut naive: Vec<(String, &JobSpec)> = Vec::new();
            for spec in &specs {
                let h = spec.content_hash();
                if naive.iter().all(|(seen, _)| *seen != h) {
                    naive.push((h, spec));
                }
            }
            prop_assert_eq!(distinct.len(), naive.len());
            for ((h, spec), (nh, nspec)) in distinct.iter().zip(&naive) {
                prop_assert_eq!(h, nh);
                prop_assert!(std::ptr::eq(*spec, *nspec), "pair {} is not the first spec seen", h);
            }
        }
    }

    #[test]
    fn dedups_and_is_thread_count_invariant() {
        let specs = vec![noc_job(1), noc_job(2), noc_job(1), noc_job(2), noc_job(1)];
        let serial = execute_payloads(&specs, 1, None);
        let parallel = execute_payloads(&specs, 4, None);
        assert_eq!(serial.len(), 2);
        assert_eq!(parallel.len(), 2);
        for spec in &specs {
            let h = spec.content_hash();
            let a = serial.get(&h).expect("payload executed");
            let b = parallel.get(&h).expect("payload executed");
            assert_eq!(a.result_hash, b.result_hash);
            assert_eq!(a.service, b.service);
            // NocPoint service demand is the harness window.
            assert_eq!(a.service, Cycles::new(500));
        }
    }
}
