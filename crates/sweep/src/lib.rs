//! `flumen-sweep` — deterministic experiment orchestration.
//!
//! The figure/ablation binaries under `crates/bench` all reduce to the
//! same shape: enumerate a grid of simulation configurations, run each
//! one, tabulate. This crate factors that shape out into three pieces:
//!
//! * **Jobs** ([`JobSpec`]): a fully-serializable description of one
//!   experiment (full-system benchmark run or NoC latency point) with a
//!   stable SHA-256 content hash over its canonical JSON plus a
//!   code-version salt.
//! * **Execution** ([`SweepPlan`], [`run_plan`]): a thread pool pulling
//!   from a shared queue. Results are keyed by plan index and every job
//!   carries its own seed, so parallel and serial runs are bit-identical.
//! * **Caching** ([`ResultCache`]): content-addressed JSON entries under
//!   `EXPERIMENTS-data/cache/`. A re-run with unchanged parameters is
//!   pure cache hits; changing any parameter (or [`CODE_VERSION`])
//!   changes the hash and re-simulates exactly the affected jobs.
//!
//! Sinks ([`sink`]) write JSONL result and trace files and append a
//! per-sweep manifest line for auditability.
//!
//! Environment knobs: `FLUMEN_SWEEP_THREADS` (worker count),
//! `FLUMEN_SWEEP_FORCE=1` (bypass cache), `FLUMEN_SWEEP_CHECKPOINT`
//! (checkpoint interval in cycles for long full-system jobs, which then
//! resume from their newest snapshot after a kill), `FLUMEN_DATA_DIR`
//! (data, cache and checkpoint root).

#![warn(missing_docs)]

pub mod cache;
pub mod configs;
pub mod exec;
pub mod hash;
pub mod job;
pub mod metrics;
pub mod sink;

/// Canonical JSON (re-exported from `flumen-sim`, where it moved so
/// simulation snapshots and job hashes share one canonical byte form).
pub use flumen_sim::json;

pub use cache::{CacheEntry, ResultCache};
pub use exec::{run_plan, JobRecord, SweepOptions, SweepPlan, SweepReport};
pub use job::{
    BenchKind, BenchSize, BenchSpec, JobResult, JobSpec, NetSpec, NocStatsPoint, CODE_VERSION,
};
pub use json::{FromJson, Json, JsonError, ToJson};
