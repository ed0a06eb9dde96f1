//! Sweep plans and the parallel, cache-backed executor.
//!
//! A [`SweepPlan`] is an ordered list of [`JobSpec`]s (built from
//! cartesian grids and/or explicit job lists). [`run_plan`] fans the
//! cache misses across a pool of worker threads pulling from a shared
//! queue, then reassembles results **by job index**, so the output is
//! bit-identical whatever the thread count or completion order: each job
//! is a pure function of its spec (own seed, no shared mutable state),
//! and position in the plan — not scheduling — decides where its result
//! lands. Duplicate specs within one plan are executed once and fanned
//! out to every position that requested them.

use crate::cache::ResultCache;
use crate::job::{JobResult, JobSpec};
use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Instant;

/// An ordered collection of jobs to run.
#[derive(Debug, Clone, Default)]
pub struct SweepPlan {
    jobs: Vec<JobSpec>,
}

impl SweepPlan {
    /// An empty plan.
    pub fn new() -> Self {
        SweepPlan::default()
    }

    /// Appends one job; returns its index in the plan.
    pub fn push(&mut self, job: JobSpec) -> usize {
        self.jobs.push(job);
        self.jobs.len() - 1
    }

    /// Appends every job from an iterator.
    pub fn extend(&mut self, jobs: impl IntoIterator<Item = JobSpec>) {
        self.jobs.extend(jobs);
    }

    /// The jobs, in plan order.
    pub fn jobs(&self) -> &[JobSpec] {
        &self.jobs
    }

    /// Number of jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the plan holds no jobs.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }
}

/// Executor options.
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Worker threads. 1 = serial.
    pub threads: usize,
    /// Ignore cached results and re-simulate everything.
    pub force: bool,
    /// Cache directory.
    pub cache_dir: PathBuf,
    /// Per-job progress lines on stderr.
    pub verbose: bool,
}

impl SweepOptions {
    /// Environment-driven defaults: `FLUMEN_SWEEP_THREADS` (default: all
    /// available cores), `FLUMEN_SWEEP_FORCE=1` to bypass the cache, and
    /// the cache under [`ResultCache::default_dir`].
    pub fn from_env() -> Self {
        let threads = std::env::var("FLUMEN_SWEEP_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            });
        let force = std::env::var("FLUMEN_SWEEP_FORCE")
            .map(|v| v == "1" || v.eq_ignore_ascii_case("true"))
            .unwrap_or(false);
        SweepOptions {
            threads,
            force,
            cache_dir: ResultCache::default_dir(),
            verbose: false,
        }
    }

    /// Single-threaded, quiet, cache in `dir` (handy for tests).
    pub fn serial_in(dir: PathBuf) -> Self {
        SweepOptions {
            threads: 1,
            force: false,
            cache_dir: dir,
            verbose: false,
        }
    }
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions::from_env()
    }
}

/// Per-job accounting, aligned with the plan's job order.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// Human-readable job label.
    pub label: String,
    /// Content hash (the cache key).
    pub hash: String,
    /// Whether the result came from the cache.
    pub cached: bool,
    /// Wall-clock execution time, ms (the *original* run's time when
    /// served from cache).
    pub wall_ms: f64,
}

/// Everything a sweep produced.
#[derive(Debug)]
pub struct SweepReport {
    /// One result per plan job, in plan order.
    pub results: Vec<JobResult>,
    /// One record per plan job, in plan order.
    pub records: Vec<JobRecord>,
    /// Total sweep wall time, ms.
    pub wall_ms: f64,
}

impl SweepReport {
    /// Jobs served from the cache.
    pub fn cache_hits(&self) -> usize {
        self.records.iter().filter(|r| r.cached).count()
    }

    /// Jobs actually simulated.
    pub fn executed(&self) -> usize {
        self.records.len() - self.cache_hits()
    }

    /// Fraction of jobs served from the cache (0 for an empty plan).
    pub fn hit_rate(&self) -> f64 {
        if self.records.is_empty() {
            0.0
        } else {
            self.cache_hits() as f64 / self.records.len() as f64
        }
    }
}

/// Runs every job in the plan and returns results in plan order.
///
/// Cache hits are resolved up front; the misses are deduplicated by
/// content hash and distributed over `opts.threads` workers sharing a
/// queue. Each executed result is written back to the cache before the
/// report is assembled.
///
/// # Panics
///
/// Panics if any job panics (after all other jobs finish), or on cache
/// I/O failure.
pub fn run_plan(plan: &SweepPlan, opts: &SweepOptions) -> SweepReport {
    // Wall-clock feeds only the `wall_ms` metadata; result bytes come
    // from the seeded JobResult JSON alone.
    let t0 = Instant::now(); // flumen-check: allow(det-wall-clock)
    let cache = ResultCache::open(&opts.cache_dir);

    let hashes: Vec<String> = plan.jobs().iter().map(JobSpec::content_hash).collect();
    let mut slots: Vec<Option<(JobResult, bool, f64)>> = vec![None; plan.len()];

    // Resolve cache hits first (serial: this is pure file I/O). An entry
    // counts only if it was stored for this very spec; anything else is a
    // miss that recomputes and overwrites it.
    if !opts.force {
        for (i, (hash, spec)) in hashes.iter().zip(plan.jobs()).enumerate() {
            if let Some(entry) = cache.load(hash).filter(|e| e.spec == *spec) {
                if opts.verbose {
                    eprintln!("  [sweep] cached  {}", spec.label());
                }
                slots[i] = Some((entry.result, true, entry.wall_ms));
            }
        }
    }

    // Deduplicate the misses: one execution per distinct hash, fanned out
    // to every plan position that asked for it.
    let mut unique: Vec<(JobSpec, Vec<usize>)> = Vec::new();
    let mut by_hash: BTreeMap<&str, usize> = BTreeMap::new();
    for (i, hash) in hashes.iter().enumerate() {
        if slots[i].is_some() {
            continue;
        }
        match by_hash.get(hash.as_str()) {
            Some(&u) => unique[u].1.push(i),
            None => {
                by_hash.insert(hash.as_str(), unique.len());
                unique.push((plan.jobs()[i].clone(), vec![i]));
            }
        }
    }

    // Shared work queue + result slots for the workers.
    type WorkerOutcome = Option<Result<(JobResult, f64), String>>;
    let queue: Mutex<VecDeque<usize>> = Mutex::new((0..unique.len()).collect());
    let done: Mutex<Vec<WorkerOutcome>> = Mutex::new(vec![None; unique.len()]);
    let workers = opts.threads.clamp(1, unique.len().max(1));

    std::thread::scope(|scope| {
        for _ in 0..workers {
            let (queue, done, unique, cache) = (&queue, &done, &unique, &cache);
            scope.spawn(move || loop {
                let Some(u) = queue.lock().unwrap().pop_front() else {
                    break;
                };
                let (spec, _) = &unique[u];
                if opts.verbose {
                    eprintln!("  [sweep] running {}", spec.label());
                }
                // Per-job timing is reporting metadata, never result bytes.
                let tj = Instant::now(); // flumen-check: allow(det-wall-clock)
                let outcome =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| spec.execute()));
                let wall = tj.elapsed().as_secs_f64() * 1e3;
                let entry = match outcome {
                    Ok(result) => {
                        cache.store(spec, &result, wall);
                        Ok((result, wall))
                    }
                    Err(payload) => {
                        let msg = payload
                            .downcast_ref::<String>()
                            .cloned()
                            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                            .unwrap_or_else(|| "non-string panic".into());
                        Err(msg)
                    }
                };
                done.lock().unwrap()[u] = Some(entry);
            });
        }
    });

    // Fan executed results out to their plan positions.
    let done = done.into_inner().unwrap();
    let mut failures: Vec<String> = Vec::new();
    for ((spec, positions), outcome) in unique.into_iter().zip(done) {
        match outcome.expect("worker completed every queued job") {
            Ok((result, wall)) => {
                for &i in &positions {
                    slots[i] = Some((result.clone(), false, wall));
                }
            }
            Err(msg) => failures.push(format!("{}: {msg}", spec.label())),
        }
    }
    assert!(
        failures.is_empty(),
        "sweep job(s) failed:\n  {}",
        failures.join("\n  ")
    );

    let mut results = Vec::with_capacity(plan.len());
    let mut records = Vec::with_capacity(plan.len());
    for ((slot, hash), spec) in slots.into_iter().zip(hashes).zip(plan.jobs()) {
        let (result, cached, wall_ms) = slot.expect("every job resolved");
        results.push(result);
        records.push(JobRecord {
            label: spec.label(),
            hash,
            cached,
            wall_ms,
        });
    }

    SweepReport {
        results,
        records,
        wall_ms: t0.elapsed().as_secs_f64() * 1e3,
    }
}
