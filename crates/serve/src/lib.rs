//! # flumen-serve — the request-driven serving subsystem
//!
//! Every other driver in this workspace is a closed-loop batch
//! experiment: it decides what to run, runs it, and tabulates. This
//! crate turns the simulator into a *served* system — the regime the
//! paper's "dynamic processing under real traffic" claim actually lives
//! in — with three layers:
//!
//! * **Scenarios** ([`scenario`]): open-loop load generators (Poisson,
//!   bursty/MMPP-2, diurnal ramp) over seeded [`flumen_sim::SimRng`]
//!   streams. A scenario is a pure function of its spec: same seed,
//!   same request trace, bit for bit.
//! * **Admission** ([`admission`], [`queue`]): a bounded FIFO with
//!   per-class timeouts and a configurable shed policy. Saturation is
//!   graceful by construction — overload sheds, it never panics (both
//!   modules are on the `flumen-check` no-panic hot-path list).
//! * **Serving** ([`server`], [`exec`]): a deterministic event-driven
//!   queueing simulation in sim time, fed by a content-addressed table
//!   of payload results executed in parallel on wall-clock threads.
//!   Payloads are checkpointable `flumen-sim` work items, so a killed
//!   worker resumes a partially-executed request bit-identically.
//!
//! Two binaries drive it: `flumen_served` (run one scenario, print the
//! SLO summary) and `bench_serve` (sweep offered load per scenario
//! family and write the `BENCH_serve.json` saturation trajectory).

#![warn(missing_docs)]

pub mod admission;
pub mod exec;
pub mod queue;
pub mod request;
pub mod scenario;
pub mod server;

pub use admission::{AdmissionConfig, AdmissionController, ClassPolicy, Counters, ShedPolicy};
pub use exec::{execute_payloads, Payload, PayloadTable};
pub use queue::{BoundedQueue, Queued};
pub use request::{Outcome, Request, RequestClass, RequestRecord};
pub use scenario::{ArrivalProcess, JobMix, ScenarioSpec, MCYCLE};
pub use server::{run_scenario, serve_requests, ServeError, ServeReport};

/// Engine configuration: admission policy plus the two parallelism
/// knobs. `workers` is *simulated* service parallelism (how many
/// requests are in service at once, in sim time); `exec_threads` is
/// *wall-clock* parallelism for executing distinct payloads, which by
/// construction cannot affect any simulated result.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Admission-control policy.
    pub admission: AdmissionConfig,
    /// Simulated service slots (≥ 1).
    pub workers: u32,
    /// OS threads for payload execution (≥ 1).
    pub exec_threads: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            admission: AdmissionConfig::default(),
            workers: 4,
            exec_threads: 4,
        }
    }
}
