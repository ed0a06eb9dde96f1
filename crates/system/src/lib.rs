//! # flumen-system
//!
//! A mechanistic multicore chiplet system model — the Sniper substitute in
//! the Flumen reproduction. 64 out-of-order cores (interval-style timing)
//! on 16 chiplets execute benchmark task graphs against a functional
//! L1d/L2/L3 cache hierarchy; L2 misses to remote homes become real
//! packets in an attached `flumen-noc` network, so interconnect latency
//! and congestion directly shape core stall time.
//!
//! The [`ExternalServer`] hook is where the Flumen runtime plugs in the
//! MZIM control unit to service offload requests (paper Algorithm 1).
//!
//! # Example
//!
//! ```
//! use flumen_system::{CoreTask, NullServer, SystemConfig, SystemSim};
//! use flumen_noc::MzimCrossbar;
//!
//! let cfg = SystemConfig { cores: 4, chiplets: 4, ..SystemConfig::paper() };
//! let net = MzimCrossbar::new(4, flumen_noc::CrossbarConfig::default()).unwrap();
//! let mut tasks: Vec<Vec<CoreTask>> = vec![Vec::new(); 4];
//! tasks[0].push(CoreTask::Compute { ops: 1_000 });
//! let sim = SystemSim::new(cfg, net, NullServer::default(), tasks);
//! let result = sim.run(100_000);
//! assert_eq!(result.counts.core_ops, 1_000);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cache;
mod config;
mod counts;
pub mod engine;
mod tag_table;
mod tasks;

pub use cache::{AccessResult, Cache};
pub use config::{CacheConfig, SystemConfig};
pub use counts::ActivityCounts;
pub use engine::{
    ExternalOutcome, ExternalPayload, ExternalServer, NullServer, RunResult, SystemSim,
};
pub use tasks::CoreTask;
