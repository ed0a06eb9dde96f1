//! The serve engine against a one-heap reference.
//!
//! `serve_requests` walks the arrivals in `(arrival, index)` order beside
//! an event queue that holds only completions and timeouts, and it
//! expires a timeout only while its request is still queued. The
//! reference below is the loop it replaced: every arrival is scheduled on
//! one [`EventQueue`] up front, and every timeout event asks the admission
//! controller to expire its request. The two must agree on every record,
//! counter, histogram, drain cycle and queue-depth peak, for requests
//! given in any order, many arriving at one cycle, and timeouts short
//! enough to race dispatch.

use flumen_noc::harness::RunConfig;
use flumen_noc::traffic::TrafficPattern;
use flumen_serve::admission::{Offer, Pop};
use flumen_serve::exec::execute_payloads;
use flumen_serve::{
    serve_requests, AdmissionConfig, AdmissionController, ArrivalProcess, ClassPolicy, JobMix,
    Outcome, Payload, PayloadTable, Request, RequestClass, RequestRecord, ScenarioSpec,
    ServeConfig, ServeReport, ShedPolicy,
};
use flumen_sim::{Cycles, EventQueue, SimRng};
use flumen_sweep::{JobSpec, NetSpec};
use flumen_trace::{Histogram, TraceHandle};
use proptest::prelude::*;
use rand::Rng;
use std::sync::{Arc, OnceLock};

#[derive(Debug, Clone, Copy)]
enum Event {
    Arrival(usize),
    Timeout(u64),
    Completion(u32),
}

/// The payloads requests draw from: traffic jobs of 10, 30 and 45 cycles
/// of service, and the standard mix's MVM offload.
fn jobs() -> &'static (Vec<JobSpec>, PayloadTable) {
    static JOBS: OnceLock<(Vec<JobSpec>, PayloadTable)> = OnceLock::new();
    JOBS.get_or_init(|| {
        let traffic = |warmup, measure| JobSpec::NocPoint {
            net: NetSpec::Ring { nodes: 4 },
            pattern: TrafficPattern::UniformRandom,
            load: 0.1,
            cfg: RunConfig {
                warmup,
                measure,
                ..RunConfig::default()
            },
        };
        let mut jobs = vec![traffic(5, 5), traffic(10, 20), traffic(15, 30)];
        jobs.push(JobMix::standard().choices()[0].1.clone());
        let table = execute_payloads(&jobs, 1, None);
        (jobs, table)
    })
}

/// The engine as one heap: all arrivals scheduled before any other event,
/// and every timeout handed to [`AdmissionController::expire`].
fn reference(requests: &[Request], cfg: &ServeConfig, table: &PayloadTable) -> ServeReport {
    let payload =
        |r: &Request| -> &Payload { table.get(&r.job.content_hash()).expect("payload executed") };
    let mut events = EventQueue::new();
    for (idx, r) in requests.iter().enumerate() {
        events.schedule(r.arrival, Event::Arrival(idx));
    }
    let mut admission = AdmissionController::new(cfg.admission.clone());
    let mut workers: Vec<Option<u64>> = vec![None; cfg.workers as usize];
    let mut records: Vec<RequestRecord> = requests.iter().map(RequestRecord::pending).collect();
    let mut latency = Histogram::default();
    let mut mvm_latency = Histogram::default();
    let mut traffic_latency = Histogram::default();
    let (mut max_depth, mut drained) = (0u64, 0u64);

    let dispatch = |now: Cycles,
                    admission: &mut AdmissionController,
                    workers: &mut [Option<u64>],
                    records: &mut [RequestRecord],
                    events: &mut EventQueue<Event>| {
        for (w, slot) in workers.iter_mut().enumerate() {
            if slot.is_some() {
                continue;
            }
            loop {
                match admission.pop_ready(now) {
                    Pop::Empty => return,
                    Pop::Expired(q) => {
                        let rec = &mut records[q.id as usize];
                        rec.outcome = Outcome::TimedOut;
                        rec.finished = q.deadline.map(Cycles::value);
                    }
                    Pop::Ready(q) => {
                        let rec = &mut records[q.id as usize];
                        rec.started = Some(now.value());
                        rec.worker = Some(w as u32);
                        *slot = Some(q.id);
                        let service = payload(&requests[q.id as usize]).service;
                        events.schedule(now + service, Event::Completion(w as u32));
                        break;
                    }
                }
            }
        }
    };

    while let Some(now) = events.peek_deadline() {
        drained = now.value();
        while let Some(ev) = events.pop_due(now) {
            match ev {
                Event::Arrival(idx) => {
                    let req = &requests[idx];
                    match admission.offer(req.id, req.class(), now) {
                        Offer::Rejected => {
                            records[idx].outcome = Outcome::Shed;
                            records[idx].finished = Some(now.value());
                        }
                        Offer::Enqueued { deadline, evicted } => {
                            records[idx].deadline = deadline.map(Cycles::value);
                            if let Some(d) = deadline {
                                events.schedule(d, Event::Timeout(req.id));
                            }
                            if let Some(victim) = evicted {
                                let rec = &mut records[victim.id as usize];
                                rec.outcome = Outcome::Shed;
                                rec.finished = Some(now.value());
                            }
                        }
                    }
                    dispatch(now, &mut admission, &mut workers, &mut records, &mut events);
                }
                Event::Timeout(id) => {
                    if let Some(q) = admission.expire(id, now) {
                        let rec = &mut records[id as usize];
                        rec.outcome = Outcome::TimedOut;
                        rec.finished = q.deadline.map(Cycles::value);
                    }
                }
                Event::Completion(w) => {
                    if let Some(id) = workers[w as usize].take() {
                        let rec = &mut records[id as usize];
                        rec.outcome = Outcome::Completed;
                        rec.finished = Some(now.value());
                        let lat = now.value() - rec.arrival;
                        rec.latency = Some(lat);
                        rec.result_hash =
                            Some(Arc::clone(&payload(&requests[id as usize]).result_hash));
                        latency.record(lat);
                        match rec.class {
                            RequestClass::Mvm => mvm_latency.record(lat),
                            RequestClass::Traffic => traffic_latency.record(lat),
                        }
                    }
                    dispatch(now, &mut admission, &mut workers, &mut records, &mut events);
                }
            }
            max_depth = max_depth.max(admission.depth() as u64);
        }
    }

    ServeReport {
        scenario: flumen_sim::Json::Null,
        workers: cfg.workers,
        counters: admission.counters(),
        latency,
        mvm_latency,
        traffic_latency,
        max_queue_depth: max_depth,
        drained,
        records,
    }
}

/// A scenario to name the run; the requests are built by hand.
fn scenario() -> ScenarioSpec {
    ScenarioSpec {
        name: "arrival-walk".into(),
        process: ArrivalProcess::Poisson { rate: 1.0 },
        horizon: Cycles::new(1),
        clients: 1,
        seed: 0,
        mix: JobMix::standard(),
    }
}

/// A class policy from a draw in `0..8`: a timeout of 0–5 cycles, or
/// none.
fn policy(draw: u64) -> ClassPolicy {
    ClassPolicy {
        timeout: (draw < 6).then(|| Cycles::new(draw)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arrival_walk_matches_the_one_heap_reference(
        seed in any::<u64>(),
        len in 0usize..48,
        (queue_depth, workers) in (0usize..5, 1u32..5),
        oldest in any::<bool>(),
        (mvm, traffic) in (0u64..8, 0u64..8),
    ) {
        let (jobs, table) = jobs();
        // Arrivals over a short span, so many share a cycle, in the order
        // drawn, not sorted.
        let mut rng = SimRng::seed_from_u64(seed);
        let requests: Vec<Request> = (0..len)
            .map(|i| Request {
                id: i as u64,
                client: rng.gen_range(0..3),
                arrival: Cycles::new(rng.gen_range(0..120)),
                job: jobs[rng.gen_range(0..jobs.len())].clone(),
            })
            .collect();
        let cfg = ServeConfig {
            admission: AdmissionConfig {
                queue_depth,
                shed: if oldest { ShedPolicy::Oldest } else { ShedPolicy::Newest },
                mvm: policy(mvm),
                traffic: policy(traffic),
            },
            workers,
            exec_threads: 1,
        };
        let got = serve_requests(&scenario(), &requests, &cfg, table, &TraceHandle::disabled())
            .expect("serve");
        let want = reference(&requests, &cfg, table);
        prop_assert_eq!(got.result_hash(), want.result_hash());
        prop_assert_eq!(got.counters, want.counters);
        prop_assert_eq!(&got.latency, &want.latency);
        prop_assert_eq!(&got.mvm_latency, &want.mvm_latency);
        prop_assert_eq!(&got.traffic_latency, &want.traffic_latency);
        prop_assert_eq!(got.drained, want.drained);
        prop_assert_eq!(got.max_queue_depth, want.max_queue_depth);
        prop_assert!(got.counters.conserved(), "{:?}", got.counters);
    }
}
