//! `flumen_served` — the long-running serving driver.
//!
//! Generates an open-loop scenario, executes the distinct payloads on a
//! wall-clock worker pool, then serves the full request trace through
//! the admission controller and prints the SLO summary. The whole run is
//! a pure function of the flags: same seed, same report, same result
//! hash — which is what makes `--out` reports diffable across machines.
//!
//! ```text
//! flumen_served [--scenario poisson|bursty|diurnal] [--rate R] [--horizon N]
//!               [--clients N] [--seed S] [--workers N] [--queue-depth N]
//!               [--timeout CYCLES] [--shed newest|oldest] [--threads N]
//!               [--checkpoint DIR] [--out FILE]
//! ```
//!
//! `--rate` is mean requests per megacycle (aggregate across clients);
//! `--timeout 0` disables in-queue deadlines. `--checkpoint DIR` makes
//! full-system payloads snapshot every 1,000 cycles under `DIR`, keyed
//! by payload content hash, so a killed run resumes them on the next
//! invocation with the same report.

use flumen::CheckpointPolicy;
use flumen_serve::{
    run_scenario, AdmissionConfig, ArrivalProcess, ClassPolicy, JobMix, ScenarioSpec, ServeConfig,
    ShedPolicy,
};
use flumen_sim::{Cycles, ToJson};
use flumen_trace::TraceHandle;
use std::process::ExitCode;

struct Flags {
    scenario: String,
    rate: f64,
    horizon: u64,
    clients: u32,
    seed: u64,
    workers: u32,
    queue_depth: usize,
    timeout: u64,
    shed: ShedPolicy,
    threads: usize,
    checkpoint: Option<String>,
    out: Option<String>,
}

impl Default for Flags {
    fn default() -> Self {
        Flags {
            scenario: "poisson".into(),
            rate: 40.0,
            horizon: 4_000_000,
            clients: 4,
            seed: 0xF1,
            workers: 4,
            queue_depth: 64,
            timeout: 0,
            shed: ShedPolicy::Newest,
            threads: 4,
            checkpoint: None,
            out: None,
        }
    }
}

fn parse_flags() -> Result<Flags, String> {
    let mut f = Flags::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} needs a value argument"))
        };
        match arg.as_str() {
            "--scenario" => f.scenario = take("--scenario")?,
            "--rate" => {
                f.rate = take("--rate")?
                    .parse()
                    .map_err(|e| format!("--rate: {e}"))?
            }
            "--horizon" => {
                f.horizon = take("--horizon")?
                    .parse()
                    .map_err(|e| format!("--horizon: {e}"))?
            }
            "--clients" => {
                f.clients = take("--clients")?
                    .parse()
                    .map_err(|e| format!("--clients: {e}"))?
            }
            "--seed" => {
                f.seed = take("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--workers" => {
                f.workers = take("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?
            }
            "--queue-depth" => {
                f.queue_depth = take("--queue-depth")?
                    .parse()
                    .map_err(|e| format!("--queue-depth: {e}"))?
            }
            "--timeout" => {
                f.timeout = take("--timeout")?
                    .parse()
                    .map_err(|e| format!("--timeout: {e}"))?
            }
            "--shed" => {
                f.shed = match take("--shed")?.as_str() {
                    "newest" => ShedPolicy::Newest,
                    "oldest" => ShedPolicy::Oldest,
                    other => return Err(format!("unknown shed policy `{other}`")),
                }
            }
            "--threads" => {
                f.threads = take("--threads")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?
            }
            "--checkpoint" => f.checkpoint = Some(take("--checkpoint")?),
            "--out" => f.out = Some(take("--out")?),
            "--help" | "-h" => {
                println!(
                    "usage: flumen_served [--scenario poisson|bursty|diurnal] [--rate R] \
                     [--horizon N] [--clients N] [--seed S] [--workers N] [--queue-depth N] \
                     [--timeout CYCLES] [--shed newest|oldest] [--threads N] \
                     [--checkpoint DIR] [--out FILE]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    Ok(f)
}

/// Builds the family's process at the requested aggregate mean rate.
fn process_for(family: &str, rate: f64, horizon: u64) -> Result<ArrivalProcess, String> {
    match family {
        "poisson" => Ok(ArrivalProcess::Poisson { rate }),
        // Mean over dwells: (0.6·3 + 2.2·1)/4 = 1.0 × rate.
        "bursty" => Ok(ArrivalProcess::Bursty {
            base: 0.6 * rate,
            burst: 2.2 * rate,
            dwell_base: 300_000.0,
            dwell_burst: 100_000.0,
        }),
        "diurnal" => Ok(ArrivalProcess::Diurnal {
            trough: 0.4 * rate,
            peak: 1.6 * rate,
            period: (horizon as f64 / 2.0).max(1.0),
        }),
        other => Err(format!("unknown scenario family `{other}`")),
    }
}

fn main() -> ExitCode {
    let flags = match parse_flags() {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let process = match process_for(&flags.scenario, flags.rate, flags.horizon) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let timeout = if flags.timeout == 0 {
        None
    } else {
        Some(Cycles::new(flags.timeout))
    };
    let spec = ScenarioSpec {
        name: format!("{}@{}", flags.scenario, flags.rate),
        process,
        horizon: Cycles::new(flags.horizon),
        clients: flags.clients,
        seed: flags.seed,
        mix: JobMix::standard(),
    };
    let cfg = ServeConfig {
        admission: AdmissionConfig {
            queue_depth: flags.queue_depth,
            shed: flags.shed,
            mvm: ClassPolicy { timeout },
            traffic: ClassPolicy { timeout },
        },
        workers: flags.workers,
        exec_threads: flags.threads,
    };
    let checkpoint = flags.checkpoint.as_ref().map(|dir| CheckpointPolicy {
        dir: dir.into(),
        every_cycles: 1_000,
    });

    println!(
        "flumen_served: {} · rate {}/Mcycle · horizon {} cycles · {} clients · seed {:#x}",
        flags.scenario, flags.rate, flags.horizon, flags.clients, flags.seed
    );
    let report = match run_scenario(&spec, &cfg, checkpoint.as_ref(), &TraceHandle::disabled()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    let c = report.counters;
    println!(
        "  dispositions: offered {} · admitted {} · shed {} · timed_out {} (conserved: {})",
        c.offered,
        c.admitted,
        c.shed,
        c.timed_out,
        c.conserved()
    );
    let pct = |q: f64| {
        report
            .percentile(q)
            .map(|v| v.to_string())
            .unwrap_or_else(|| "-".into())
    };
    println!(
        "  latency (cycles): p50 {} · p99 {} · p999 {} · mean {:.0} · max {}",
        pct(0.50),
        pct(0.99),
        pct(0.999),
        report.latency.mean().unwrap_or(0.0),
        if report.latency.count == 0 {
            "-".into()
        } else {
            report.latency.max.to_string()
        }
    );
    for (name, h) in [
        ("mvm", &report.mvm_latency),
        ("traffic", &report.traffic_latency),
    ] {
        if h.count > 0 {
            println!(
                "    {name}: {} served, p99 {}",
                h.count,
                h.percentile(0.99).unwrap_or(0)
            );
        }
    }
    println!(
        "  max queue depth {} · drained at cycle {}",
        report.max_queue_depth, report.drained
    );
    println!("  result hash {}", report.result_hash());

    if let Some(path) = &flags.out {
        let json = report.to_json().to_canonical();
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("  → wrote {path}");
    }
    if !c.conserved() {
        eprintln!("error: disposition counters not conserved");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
