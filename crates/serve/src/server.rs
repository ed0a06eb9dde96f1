//! The serve engine: a deterministic, event-driven queueing simulation.
//!
//! Time here is *simulated* cycles. Arrivals are walked in
//! `(arrival, index)` order beside the shared `flumen-sim` [`EventQueue`],
//! which holds only in-queue timeouts and service completions; at one
//! cycle every arrival goes first, and the queued events follow in the
//! queue's `(deadline, insertion)` order. Wall clock never enters the
//! model, so a scenario replays bit-identically across runs, machines, and
//! payload-executor thread counts; the only nondeterminism in the whole
//! subsystem (parallel payload execution) is quarantined behind the
//! content-addressed [`PayloadTable`].

use crate::admission::{AdmissionController, Counters, Offer, Pop};
use crate::exec::{distinct_payloads, execute_payloads, Payload, PayloadTable};
use crate::request::{Outcome, Request, RequestClass, RequestRecord};
use crate::scenario::ScenarioSpec;
use crate::ServeConfig;
use flumen::CheckpointPolicy;
use flumen_sim::{Cycles, EventQueue, Json, ToJson};
use flumen_sweep::hash::sha256_hex;
use flumen_trace::{EventKind, Histogram, TraceCategory, TraceEvent, TraceHandle};
use std::sync::Arc;

/// What the engine handles next. Only timeouts and completions are
/// scheduled on the sim event queue; arrivals come from the walk.
#[derive(Debug, Clone, Copy)]
enum ServeEvent {
    /// Request `requests[idx]` arrives.
    Arrival(usize),
    /// The in-queue timeout for request `id` fires.
    Timeout(u64),
    /// Worker `w` finishes its current request.
    Completion(u32),
}

/// A request whose payload is missing from the table, or a scenario the
/// engine cannot run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeError(pub String);

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "serve error: {}", self.0)
    }
}

impl std::error::Error for ServeError {}

/// Everything a serve run produced: the scenario it ran, disposition
/// counters, per-class latency histograms, and the full per-request
/// audit trail the result hash is computed over.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// The scenario, serialized (spec + seed fully identify the trace).
    pub scenario: Json,
    /// Worker count the scenario ran with.
    pub workers: u32,
    /// Final disposition counters (conserved after drain).
    pub counters: Counters,
    /// End-to-end latency of completed requests (queue wait + service).
    pub latency: Histogram,
    /// Latency of completed MVM-offload requests.
    pub mvm_latency: Histogram,
    /// Latency of completed traffic requests.
    pub traffic_latency: Histogram,
    /// Largest queue depth observed.
    pub max_queue_depth: u64,
    /// Cycle the last event drained.
    pub drained: u64,
    /// Per-request audit records, in request-id order.
    pub records: Vec<RequestRecord>,
}

impl ServeReport {
    /// SHA-256 over the canonical JSON of the per-request records — the
    /// replay-determinism fingerprint: two runs hash equal iff every
    /// request saw the same timestamps, disposition, and result.
    pub fn result_hash(&self) -> String {
        let arr = Json::Arr(self.records.iter().map(ToJson::to_json).collect());
        sha256_hex(arr.to_canonical().as_bytes())
    }

    /// Latency quantile over completed requests (`None` when none
    /// completed).
    pub fn percentile(&self, q: f64) -> Option<u64> {
        self.latency.percentile(q)
    }
}

fn histogram_json(h: &Histogram) -> Json {
    let pct = |q: f64| h.percentile(q).to_json();
    Json::obj([
        ("count", h.count.to_json()),
        ("mean", h.mean().to_json()),
        ("p50", pct(0.50)),
        ("p99", pct(0.99)),
        ("p999", pct(0.999)),
        (
            "max",
            if h.count == 0 {
                Json::Null
            } else {
                h.max.to_json()
            },
        ),
    ])
}

impl ToJson for ServeReport {
    fn to_json(&self) -> Json {
        Json::obj([
            ("scenario", self.scenario.clone()),
            ("workers", Json::Num(f64::from(self.workers))),
            ("counters", self.counters.to_json()),
            ("latency", histogram_json(&self.latency)),
            ("mvm_latency", histogram_json(&self.mvm_latency)),
            ("traffic_latency", histogram_json(&self.traffic_latency)),
            ("max_queue_depth", self.max_queue_depth.to_json()),
            ("drained", self.drained.to_json()),
            ("result_hash", Json::Str(self.result_hash())),
            (
                "records",
                Json::Arr(self.records.iter().map(ToJson::to_json).collect()),
            ),
        ])
    }
}

/// Runs a scenario end to end: generates the request trace, executes the
/// distinct payloads (in parallel, checkpointing under `checkpoint` when
/// given), then drives the queueing simulation.
pub fn run_scenario(
    spec: &ScenarioSpec,
    cfg: &ServeConfig,
    checkpoint: Option<&CheckpointPolicy>,
    trace: &TraceHandle,
) -> Result<ServeReport, ServeError> {
    let requests = spec.generate();
    let table = execute_payloads(
        requests.iter().map(|r| &r.job),
        cfg.exec_threads,
        checkpoint,
    );
    serve_requests(spec, &requests, cfg, &table, trace)
}

/// Drives the queueing simulation over a pre-generated request trace and
/// a pre-executed payload table.
///
/// Split out from [`run_scenario`] so benchmarks can execute the payload
/// table once and reuse it across every offered-load point.
pub fn serve_requests(
    spec: &ScenarioSpec,
    requests: &[Request],
    cfg: &ServeConfig,
    table: &PayloadTable,
    trace: &TraceHandle,
) -> Result<ServeReport, ServeError> {
    if cfg.workers == 0 {
        return Err(ServeError("worker count must be at least 1".into()));
    }
    // Resolve every request's payload up front: an unknown payload is a
    // harness bug surfaced before simulated time starts, and the hot
    // loop below then runs lookup-free. Each distinct payload is hashed
    // and looked up once; requests reach it through their pair index.
    let (distinct, index) = distinct_payloads(requests.iter().map(|r| &r.job));
    let resolved: Vec<Option<&Payload>> = distinct.iter().map(|(h, _)| table.get(h)).collect();
    let payloads: Vec<&Payload> = requests
        .iter()
        .zip(&index)
        .map(|(r, &k)| {
            resolved[k].ok_or_else(|| {
                ServeError(format!(
                    "request {} payload {} not executed",
                    r.id, distinct[k].0
                ))
            })
        })
        .collect::<Result<_, _>>()?;

    // The serving-layer batched-MVM view: requests sharing a payload hash
    // share one execution (one "mesh programming"), so each distinct
    // payload serves a batch of `k` requests. Emitted once per distinct
    // payload, in first-seen request order, before simulated time starts.
    let mut batch = vec![0u64; distinct.len()];
    for &k in &index {
        batch[k] += 1;
    }
    for (i, count) in batch.iter().enumerate() {
        trace.emit(|| {
            TraceEvent::instant(TraceCategory::Serve, "serve::batch", 0, 0)
                .with_id(i as u64)
                .with_arg("requests", *count as f64)
        });
    }

    // Arrivals in stable `(arrival, index)` order: one pass over the
    // sorted traces `generate` produces.
    let mut order: Vec<usize> = (0..requests.len()).collect();
    order.sort_by_key(|&idx| requests[idx].arrival);
    let mut arrivals = order.into_iter().peekable();
    let mut events: EventQueue<ServeEvent> = EventQueue::new();

    let mut admission = AdmissionController::new(cfg.admission.clone());
    let mut workers: Vec<Option<u64>> = vec![None; cfg.workers as usize];
    let mut records: Vec<RequestRecord> = requests.iter().map(RequestRecord::pending).collect();
    let mut latency = Histogram::default();
    let mut mvm_latency = Histogram::default();
    let mut traffic_latency = Histogram::default();
    let mut max_depth = 0u64;
    let mut drained = 0u64;

    // One dispatch sweep: fill every idle worker from the queue,
    // expiring overdue entries along the way. A local fn (not a closure)
    // so the caller can keep disjoint mutable borrows of the state.
    fn dispatch_sweep(
        now: Cycles,
        admission: &mut AdmissionController,
        workers: &mut [Option<u64>],
        records: &mut [RequestRecord],
        payloads: &[&Payload],
        events: &mut EventQueue<ServeEvent>,
        trace: &TraceHandle,
    ) {
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
                        trace.emit(|| {
                            TraceEvent::instant(
                                TraceCategory::Serve,
                                "serve::timeout",
                                now.value(),
                                0,
                            )
                            .with_id(q.id)
                        });
                    }
                    Pop::Ready(q) => {
                        let rec = &mut records[q.id as usize];
                        rec.started = Some(now.value());
                        rec.worker = Some(w as u32);
                        *slot = Some(q.id);
                        let service = payloads[q.id as usize].service;
                        events.schedule(now + service, ServeEvent::Completion(w as u32));
                        trace.emit(|| {
                            TraceEvent::new(
                                TraceCategory::Serve,
                                "serve::job",
                                EventKind::AsyncBegin,
                                now.value(),
                                w as u32,
                            )
                            .with_id(q.id)
                        });
                        trace.emit(|| {
                            TraceEvent::instant(
                                TraceCategory::Serve,
                                "serve::dispatch",
                                now.value(),
                                w as u32,
                            )
                            .with_id(q.id)
                        });
                        break;
                    }
                }
            }
        }
    }

    loop {
        let next_arrival = arrivals.peek().map(|&idx| requests[idx].arrival);
        let Some(now) = next_arrival.into_iter().chain(events.peek_deadline()).min() else {
            break;
        };
        drained = now.value();
        // Every arrival at `now` goes before any queued event due then. In
        // a single queue holding the arrivals too, they were scheduled
        // before anything else and so carry the lower insertion numbers:
        // this is the order that queue pops.
        while let Some(ev) = match arrivals.next_if(|&idx| requests[idx].arrival <= now) {
            Some(idx) => Some(ServeEvent::Arrival(idx)),
            None => events.pop_due(now),
        } {
            match ev {
                ServeEvent::Arrival(idx) => {
                    let req = &requests[idx];
                    trace.emit(|| {
                        TraceEvent::instant(TraceCategory::Serve, "serve::request", now.value(), 0)
                            .with_id(req.id)
                    });
                    match admission.offer(req.id, req.class(), now) {
                        Offer::Rejected => {
                            let rec = &mut records[idx];
                            rec.outcome = Outcome::Shed;
                            rec.finished = Some(now.value());
                            trace.emit(|| {
                                TraceEvent::instant(
                                    TraceCategory::Serve,
                                    "serve::shed",
                                    now.value(),
                                    0,
                                )
                                .with_id(req.id)
                            });
                        }
                        Offer::Enqueued { deadline, evicted } => {
                            records[idx].deadline = deadline.map(Cycles::value);
                            trace.emit(|| {
                                TraceEvent::instant(
                                    TraceCategory::Serve,
                                    "serve::admit",
                                    now.value(),
                                    0,
                                )
                                .with_id(req.id)
                            });
                            if let Some(d) = deadline {
                                events.schedule(d, ServeEvent::Timeout(req.id));
                            }
                            if let Some(victim) = evicted {
                                let rec = &mut records[victim.id as usize];
                                rec.outcome = Outcome::Shed;
                                rec.finished = Some(now.value());
                                trace.emit(|| {
                                    TraceEvent::instant(
                                        TraceCategory::Serve,
                                        "serve::shed",
                                        now.value(),
                                        0,
                                    )
                                    .with_id(victim.id)
                                });
                            }
                        }
                    }
                    dispatch_sweep(
                        now,
                        &mut admission,
                        &mut workers,
                        &mut records,
                        &payloads,
                        &mut events,
                        trace,
                    );
                }
                ServeEvent::Timeout(id) => {
                    // Only a request still queued can expire; the timeouts
                    // of dispatched, shed and expired ones are stale, and
                    // `expire` would scan the queue to find nothing.
                    let rec = &records[id as usize];
                    let queued = rec.outcome == Outcome::Pending && rec.started.is_none();
                    if let Some(q) = queued.then(|| admission.expire(id, now)).flatten() {
                        let rec = &mut records[id as usize];
                        rec.outcome = Outcome::TimedOut;
                        rec.finished = q.deadline.map(Cycles::value);
                        trace.emit(|| {
                            TraceEvent::instant(
                                TraceCategory::Serve,
                                "serve::timeout",
                                now.value(),
                                0,
                            )
                            .with_id(id)
                        });
                    }
                }
                ServeEvent::Completion(w) => {
                    if let Some(id) = workers[w as usize].take() {
                        let rec = &mut records[id as usize];
                        rec.outcome = Outcome::Completed;
                        rec.finished = Some(now.value());
                        let lat = now.value().saturating_sub(rec.arrival);
                        rec.latency = Some(lat);
                        rec.result_hash = Some(Arc::clone(&payloads[id as usize].result_hash));
                        latency.record(lat);
                        match rec.class {
                            RequestClass::Mvm => mvm_latency.record(lat),
                            RequestClass::Traffic => traffic_latency.record(lat),
                        }
                        trace.emit(|| {
                            TraceEvent::new(
                                TraceCategory::Serve,
                                "serve::job",
                                EventKind::AsyncEnd,
                                now.value(),
                                w,
                            )
                            .with_id(id)
                            .with_arg("lat", lat as f64)
                        });
                        trace.emit(|| {
                            TraceEvent::instant(
                                TraceCategory::Serve,
                                "serve::complete",
                                now.value(),
                                w,
                            )
                            .with_id(id)
                        });
                    }
                    dispatch_sweep(
                        now,
                        &mut admission,
                        &mut workers,
                        &mut records,
                        &payloads,
                        &mut events,
                        trace,
                    );
                }
            }
            let depth = admission.depth() as u64;
            if depth > max_depth {
                max_depth = depth;
            }
            trace.emit(|| {
                TraceEvent::counter(
                    TraceCategory::Serve,
                    "serve::queue_depth",
                    now.value(),
                    0,
                    depth as f64,
                )
            });
        }
    }

    Ok(ServeReport {
        scenario: spec.to_json(),
        workers: cfg.workers,
        counters: admission.counters(),
        latency,
        mvm_latency,
        traffic_latency,
        max_queue_depth: max_depth,
        drained,
        records,
    })
}
