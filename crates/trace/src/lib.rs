//! # flumen-trace
//!
//! Cross-layer structured tracing and metrics for the Flumen simulator.
//!
//! The aggregate-only results (`FullRunResult`, `NetStats`) say *what* a
//! run produced; this crate records *how* — which scheduler decision,
//! which packet, which partition — as a stream of [`TraceEvent`]s that
//! every simulator layer emits through a shared [`TraceHandle`]:
//!
//! * `flumen-noc` — per-packet inject/route/eject spans, reconfiguration
//!   and wire-reservation instants, per-link occupancy counters.
//! * `flumen` (core) — Algorithm 1 decisions: partition grant/release
//!   spans per fabric wire, defer/reject/timeout instants.
//! * `flumen-system` — offload lifecycle, barrier releases, sampled
//!   cache-miss and link-utilization counters.
//! * `flumen-sweep` — per-job wall-clock spans across worker threads.
//!
//! ## Zero cost when disabled
//!
//! Instrumented structs hold a [`TraceHandle`], which is an
//! `Option<Arc<dyn Tracer>>`. The default handle is disabled: every
//! `emit` call is one branch on a `None` and the event-construction
//! closure is never run. Installing a tracer ([`RecordingTracer`] or any
//! custom [`Tracer`]) turns the stream on at runtime.
//!
//! ## Consumers
//!
//! * [`RecordingTracer`] — bounded ring buffer; the test seam behind the
//!   invariant suite ([`invariants`]).
//! * [`Histogram`] — power-of-two-bucket histograms in the same
//!   reservoir style as `NetStats`.
//! * [`chrome`] — Chrome-trace-format JSON, loadable in `chrome://tracing`
//!   and [Perfetto](https://ui.perfetto.dev).
//! * [`jsonl`] — one canonical JSON object per event, pluggable into the
//!   `flumen-sweep` sink machinery.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod chrome;
mod event;
pub mod invariants;
pub mod jsonl;
mod metrics;
mod recorder;
mod tracer;

pub use event::{registered, EventKind, TraceCategory, TraceEvent, REGISTERED_EVENT_NAMES};
pub use metrics::{pow2_bucket, pow2_percentile, Histogram};
pub use recorder::RecordingTracer;
pub use tracer::{TraceHandle, Tracer};
