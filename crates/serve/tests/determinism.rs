//! Replay determinism of the serving subsystem.
//!
//! Three layers of the same guarantee:
//!
//! 1. every load-generator family is bit-deterministic for a fixed seed
//!    (property over random seeds and rates);
//! 2. serial vs multi-threaded payload execution of the same scenario
//!    yields identical per-request result hashes — wall-clock
//!    parallelism is invisible in sim time;
//! 3. two end-to-end serve runs with the same seed hash identical.

use flumen_serve::exec::execute_payloads;
use flumen_serve::{serve_requests, ArrivalProcess, JobMix, ScenarioSpec, ServeConfig};
use flumen_sim::Cycles;
use flumen_sweep::JobSpec;
use flumen_trace::TraceHandle;
use proptest::prelude::*;

fn noc_mix() -> JobMix {
    use flumen_noc::harness::RunConfig;
    use flumen_noc::traffic::TrafficPattern;
    use flumen_sweep::NetSpec;
    let job = |pattern, seed| JobSpec::NocPoint {
        net: NetSpec::Flumen { nodes: 16 },
        pattern,
        load: 0.2,
        cfg: RunConfig {
            warmup: 100,
            measure: 400,
            seed,
            ..RunConfig::default()
        },
    };
    JobMix::new(vec![
        (1.0, job(TrafficPattern::UniformRandom, 1)),
        (1.0, job(TrafficPattern::Shuffle, 2)),
        (1.0, job(TrafficPattern::Transpose, 3)),
    ])
}

fn family(sel: usize, rate: f64) -> ArrivalProcess {
    match sel {
        0 => ArrivalProcess::Poisson { rate },
        1 => ArrivalProcess::Bursty {
            base: 0.5 * rate,
            burst: 2.5 * rate,
            dwell_base: 120_000.0,
            dwell_burst: 40_000.0,
        },
        _ => ArrivalProcess::Diurnal {
            trough: 0.3 * rate,
            peak: 1.7 * rate,
            period: 250_000.0,
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Same spec, same trace — arrival cycles, client assignment, and
    /// payload choice all replay exactly, for every family.
    #[test]
    fn generators_are_bit_deterministic(
        sel in 0usize..3,
        seed in proptest::prelude::any::<u64>(),
        rate in 5.0f64..200.0,
        clients in 1u32..6,
    ) {
        let spec = ScenarioSpec {
            name: "prop".into(),
            process: family(sel, rate),
            horizon: Cycles::new(500_000),
            clients,
            seed,
            mix: noc_mix(),
        };
        let a = spec.generate();
        let b = spec.generate();
        prop_assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            prop_assert_eq!(x.arrival, y.arrival);
            prop_assert_eq!(x.client, y.client);
            prop_assert_eq!(x.id, y.id);
            prop_assert_eq!(x.job.content_hash(), y.job.content_hash());
        }
    }
}

#[test]
fn serial_and_parallel_execution_hash_identically() {
    let spec = ScenarioSpec {
        name: "par".into(),
        process: ArrivalProcess::Poisson { rate: 400.0 },
        horizon: Cycles::new(400_000),
        clients: 4,
        seed: 0xBEEF,
        mix: noc_mix(),
    };
    let requests = spec.generate();
    assert!(
        requests.len() > 50,
        "need a real trace, got {}",
        requests.len()
    );
    let jobs: Vec<_> = requests.iter().map(|r| r.job.clone()).collect();

    let serial = execute_payloads(&jobs, 1, None);
    let parallel = execute_payloads(&jobs, 4, None);

    let cfg = ServeConfig::default();
    let trace = TraceHandle::disabled();
    let a = serve_requests(&spec, &requests, &cfg, &serial, &trace).expect("serial serve");
    let b = serve_requests(&spec, &requests, &cfg, &parallel, &trace).expect("parallel serve");

    // Identical per-request result hashes and dispositions.
    assert_eq!(a.records.len(), b.records.len());
    for (x, y) in a.records.iter().zip(&b.records) {
        assert_eq!(x.result_hash, y.result_hash, "request {}", x.id);
        assert_eq!(x.outcome, y.outcome, "request {}", x.id);
        assert_eq!(x.finished, y.finished, "request {}", x.id);
    }
    assert_eq!(a.result_hash(), b.result_hash());
}

#[test]
fn same_seed_serves_to_the_same_hash_twice() {
    let spec = ScenarioSpec {
        name: "rerun".into(),
        process: ArrivalProcess::Bursty {
            base: 150.0,
            burst: 900.0,
            dwell_base: 80_000.0,
            dwell_burst: 30_000.0,
        },
        horizon: Cycles::new(300_000),
        clients: 3,
        seed: 7,
        mix: noc_mix(),
    };
    let cfg = ServeConfig::default();
    let trace = TraceHandle::disabled();
    let run = |spec: &ScenarioSpec| {
        let requests = spec.generate();
        let table = execute_payloads(requests.iter().map(|r| &r.job), 2, None);
        serve_requests(spec, &requests, &cfg, &table, &trace)
            .expect("serve")
            .result_hash()
    };
    assert_eq!(run(&spec), run(&spec));

    // And a different seed changes the trace (sanity that the hash is
    // actually sensitive to the scenario, not constant).
    let other = ScenarioSpec {
        seed: 8,
        ..spec.clone()
    };
    assert_ne!(run(&spec), run(&other));
}
