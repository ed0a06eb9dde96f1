//! Admission-control edge cases, driven end-to-end through the serve
//! engine (the unit-level equivalents live in `admission.rs` itself):
//! zero queue depth sheds everything, a saturated queue sheds per
//! policy, timeouts fire at exactly the configured deadline in sim
//! time, and dispositions are conserved.

use flumen_serve::exec::execute_payloads;
use flumen_serve::{
    serve_requests, AdmissionConfig, ArrivalProcess, ClassPolicy, JobMix, Outcome, ScenarioSpec,
    ServeConfig, ShedPolicy,
};
use flumen_sim::Cycles;
use flumen_sweep::JobSpec;
use flumen_trace::TraceHandle;

fn single_job_mix(measure: u64) -> JobMix {
    use flumen_noc::harness::RunConfig;
    use flumen_noc::traffic::TrafficPattern;
    use flumen_sweep::NetSpec;
    JobMix::new(vec![(
        1.0,
        JobSpec::NocPoint {
            net: NetSpec::Flumen { nodes: 16 },
            pattern: TrafficPattern::UniformRandom,
            load: 0.2,
            cfg: RunConfig {
                warmup: 100,
                measure,
                ..RunConfig::default()
            },
        },
    )])
}

fn spec(rate: f64, horizon: u64, mix: JobMix) -> ScenarioSpec {
    ScenarioSpec {
        name: "edge".into(),
        process: ArrivalProcess::Poisson { rate },
        horizon: Cycles::new(horizon),
        clients: 2,
        seed: 0xED6E,
        mix,
    }
}

fn run(spec: &ScenarioSpec, cfg: &ServeConfig) -> flumen_serve::ServeReport {
    let requests = spec.generate();
    let table = execute_payloads(requests.iter().map(|r| &r.job), 2, None);
    serve_requests(spec, &requests, cfg, &table, &TraceHandle::disabled()).expect("serve")
}

/// Service demand of the single-job mix: warmup + measure.
const SERVICE: u64 = 100 + 2_000;

#[test]
fn zero_queue_depth_with_busy_workers_sheds() {
    // One worker, no queue: while the worker is busy every arrival
    // sheds. High rate guarantees overlapping arrivals.
    let cfg = ServeConfig {
        admission: AdmissionConfig {
            queue_depth: 0,
            ..AdmissionConfig::default()
        },
        workers: 1,
        exec_threads: 2,
    };
    let report = run(&spec(2_000.0, 200_000, single_job_mix(1_900)), &cfg);
    let c = report.counters;
    assert!(c.offered > 20, "need pressure, got {}", c.offered);
    assert!(c.shed > 0, "zero-depth queue must shed under overlap");
    assert_eq!(c.timed_out, 0);
    assert!(c.conserved(), "{c:?}");
    // With depth 0 nothing ever waits: every served request started the
    // cycle it arrived.
    for r in &report.records {
        if let Some(started) = r.started {
            assert_eq!(
                started, r.arrival,
                "request {} queued despite depth 0",
                r.id
            );
        }
    }
    assert_eq!(report.max_queue_depth, 0);
}

#[test]
fn saturated_queue_sheds_newest_first() {
    let cfg = ServeConfig {
        admission: AdmissionConfig {
            queue_depth: 4,
            shed: ShedPolicy::Newest,
            ..AdmissionConfig::default()
        },
        workers: 1,
        exec_threads: 2,
    };
    let report = run(&spec(3_000.0, 300_000, single_job_mix(1_900)), &cfg);
    let c = report.counters;
    assert!(c.shed > 0, "saturation must shed");
    assert!(c.conserved(), "{c:?}");
    // Newest-first: a shed request never starts service, and everything
    // that was already queued ahead of it is protected — so among
    // same-cycle decisions the shed one is the latest arrival. Verify
    // the FIFO discipline instead: service order equals arrival order
    // among completed requests.
    let mut started: Vec<(u64, u64)> = report
        .records
        .iter()
        .filter_map(|r| r.started.map(|s| (s, r.id)))
        .collect();
    started.sort();
    let ids: Vec<u64> = started.iter().map(|&(_, id)| id).collect();
    let mut sorted = ids.clone();
    sorted.sort();
    assert_eq!(
        ids, sorted,
        "Newest policy must preserve FIFO service order"
    );
    // And shed requests are disjoint from served ones.
    for r in &report.records {
        if r.outcome == Outcome::Shed {
            assert!(r.started.is_none());
            assert!(r.result_hash.is_none());
        }
    }
}

#[test]
fn oldest_policy_evicts_queued_work() {
    let mk_cfg = |shed| ServeConfig {
        admission: AdmissionConfig {
            queue_depth: 4,
            shed,
            ..AdmissionConfig::default()
        },
        workers: 1,
        exec_threads: 2,
    };
    let s = spec(3_000.0, 300_000, single_job_mix(1_900));
    let newest = run(&s, &mk_cfg(ShedPolicy::Newest));
    let oldest = run(&s, &mk_cfg(ShedPolicy::Oldest));
    assert!(oldest.counters.conserved());
    assert!(oldest.counters.shed > 0);
    // Under Oldest, at least one shed request was first *enqueued* (has
    // a deadline-free queued phase: shed strictly after arrival would
    // need a timeout; eviction sheds at the evictor's arrival cycle,
    // which is later than the victim's own arrival).
    let evicted = oldest
        .records
        .iter()
        .filter(|r| r.outcome == Outcome::Shed)
        .filter(|r| r.finished.unwrap_or(0) > r.arrival)
        .count();
    assert!(
        evicted > 0,
        "Oldest policy must evict queued (not arriving) requests"
    );
    // Under Newest, sheds always happen at the arrival cycle itself.
    for r in newest.records.iter().filter(|r| r.outcome == Outcome::Shed) {
        assert_eq!(r.finished, Some(r.arrival));
    }
}

#[test]
fn timeout_fires_exactly_at_the_deadline() {
    let timeout = 5_000u64;
    let cfg = ServeConfig {
        admission: AdmissionConfig {
            queue_depth: 64,
            shed: ShedPolicy::Newest,
            mvm: ClassPolicy {
                timeout: Some(Cycles::new(timeout)),
            },
            traffic: ClassPolicy {
                timeout: Some(Cycles::new(timeout)),
            },
        },
        workers: 1,
        exec_threads: 2,
    };
    // Service 2100 ≫ timeout/queue ratio: with one worker at this rate
    // the queue builds and deep entries expire before dispatch.
    let report = run(&spec(1_500.0, 400_000, single_job_mix(2_000)), &cfg);
    let c = report.counters;
    assert!(c.timed_out > 0, "scenario must produce timeouts: {c:?}");
    assert!(c.conserved(), "{c:?}");
    for r in &report.records {
        assert_eq!(r.deadline, r.deadline.map(|_| r.arrival + timeout));
        if r.outcome == Outcome::TimedOut {
            // Exactly at the configured deadline, in sim time.
            assert_eq!(
                r.finished,
                Some(r.arrival + timeout),
                "request {} timed out at the wrong cycle",
                r.id
            );
            assert!(r.started.is_none());
        }
        if let Some(started) = r.started {
            // Dispatch strictly before the deadline: at the deadline
            // cycle itself, timeout wins.
            assert!(
                started < r.arrival + timeout,
                "request {} dispatched at {} despite deadline {}",
                r.id,
                started,
                r.arrival + timeout
            );
        }
    }
}

#[test]
fn dispositions_are_conserved_across_policies() {
    for depth in [0usize, 2, 64] {
        for shed in [ShedPolicy::Newest, ShedPolicy::Oldest] {
            for timeout in [None, Some(Cycles::new(4_000))] {
                let cfg = ServeConfig {
                    admission: AdmissionConfig {
                        queue_depth: depth,
                        shed,
                        mvm: ClassPolicy { timeout },
                        traffic: ClassPolicy { timeout },
                    },
                    workers: 2,
                    exec_threads: 2,
                };
                let report = run(&spec(2_500.0, 250_000, single_job_mix(1_900)), &cfg);
                let c = report.counters;
                assert!(
                    c.conserved(),
                    "depth {depth} shed {shed:?} timeout {timeout:?}: {c:?}"
                );
                // Record-level tally matches the counters exactly.
                let mut served = 0u64;
                let mut shed_n = 0u64;
                let mut timed = 0u64;
                for r in &report.records {
                    match r.outcome {
                        Outcome::Completed => served += 1,
                        Outcome::Shed => shed_n += 1,
                        Outcome::TimedOut => timed += 1,
                        Outcome::Pending => panic!("undrained request {}", r.id),
                    }
                }
                assert_eq!((served, shed_n, timed), (c.admitted, c.shed, c.timed_out));
                assert_eq!(c.offered, report.records.len() as u64);
            }
        }
    }
}

#[test]
fn service_demand_matches_the_payload() {
    // Single worker, low rate: no queueing, so latency == service.
    let cfg = ServeConfig {
        admission: AdmissionConfig::default(),
        workers: 4,
        exec_threads: 2,
    };
    let report = run(&spec(20.0, 2_000_000, single_job_mix(2_000)), &cfg);
    for r in &report.records {
        if r.outcome == Outcome::Completed && r.started == Some(r.arrival) {
            assert_eq!(r.latency, Some(SERVICE));
        }
    }
}
