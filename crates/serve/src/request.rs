//! Requests, request classes, and the per-request audit record.

use flumen_sim::json::{Json, ToJson};
use flumen_sim::Cycles;
use flumen_sweep::JobSpec;
use std::sync::Arc;

/// Which kind of payload a request carries. Admission policy (deadlines)
/// and the latency histograms are tracked per class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestClass {
    /// An MVM offload: a full-system benchmark run through the photonic
    /// fabric ([`JobSpec::FullRun`]).
    Mvm,
    /// A synthetic-traffic measurement job ([`JobSpec::NocPoint`]).
    Traffic,
}

impl RequestClass {
    /// Stable lowercase name ("mvm" / "traffic").
    pub fn name(&self) -> &'static str {
        match self {
            RequestClass::Mvm => "mvm",
            RequestClass::Traffic => "traffic",
        }
    }

    /// The class a payload job belongs to.
    pub fn of(job: &JobSpec) -> Self {
        match job {
            JobSpec::FullRun { .. } => RequestClass::Mvm,
            JobSpec::NocPoint { .. } | JobSpec::NocStats { .. } => RequestClass::Traffic,
        }
    }
}

/// One client request: a payload job plus its open-loop arrival time.
///
/// Ids are assigned in global arrival order by
/// [`crate::scenario::ScenarioSpec::generate`], so `requests[id]` indexing
/// is stable and replay-deterministic.
#[derive(Debug, Clone)]
pub struct Request {
    /// Dense id, also the index into the scenario's request vector.
    pub id: u64,
    /// Which client stream emitted this request.
    pub client: u32,
    /// Arrival time (sim cycles from scenario start).
    pub arrival: Cycles,
    /// The payload to execute.
    pub job: JobSpec,
}

impl Request {
    /// The request's class, derived from its payload.
    pub fn class(&self) -> RequestClass {
        RequestClass::of(&self.job)
    }
}

/// Final disposition of a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Still in flight (only observable mid-run; a drained report never
    /// contains pending records).
    Pending,
    /// Dispatched to a worker and served to completion.
    Completed,
    /// Rejected or evicted by the admission controller.
    Shed,
    /// Expired in-queue at its class deadline before service began.
    TimedOut,
}

impl Outcome {
    /// Stable lowercase name.
    pub fn name(&self) -> &'static str {
        match self {
            Outcome::Pending => "pending",
            Outcome::Completed => "completed",
            Outcome::Shed => "shed",
            Outcome::TimedOut => "timed_out",
        }
    }
}

/// The per-request audit trail: every timestamp and disposition needed to
/// replay-verify a serve run. The report's result hash is computed over
/// the canonical JSON of these records, so two runs agree on the hash iff
/// they agree on every request's full history.
#[derive(Debug, Clone)]
pub struct RequestRecord {
    /// Request id (index into the scenario's request vector).
    pub id: u64,
    /// Emitting client stream.
    pub client: u32,
    /// Payload class.
    pub class: RequestClass,
    /// Arrival cycle.
    pub arrival: u64,
    /// Final disposition.
    pub outcome: Outcome,
    /// Admission deadline, if the class has a timeout configured.
    pub deadline: Option<u64>,
    /// Cycle service began (dispatch to a worker).
    pub started: Option<u64>,
    /// Cycle the request left the system (completion, shed, or timeout).
    pub finished: Option<u64>,
    /// End-to-end latency (queue wait + service) for completed requests.
    pub latency: Option<u64>,
    /// Worker that served the request.
    pub worker: Option<u32>,
    /// Content hash of the payload's result (completed requests only),
    /// shared with the payload table's entry.
    pub result_hash: Option<Arc<str>>,
}

impl RequestRecord {
    /// An undisposed record for a freshly generated request.
    pub fn pending(req: &Request) -> Self {
        RequestRecord {
            id: req.id,
            client: req.client,
            class: req.class(),
            arrival: req.arrival.value(),
            outcome: Outcome::Pending,
            deadline: None,
            started: None,
            finished: None,
            latency: None,
            worker: None,
            result_hash: None,
        }
    }
}

impl ToJson for RequestRecord {
    fn to_json(&self) -> Json {
        Json::obj([
            ("id", self.id.to_json()),
            ("client", Json::Num(f64::from(self.client))),
            ("class", Json::Str(self.class.name().to_string())),
            ("arrival", self.arrival.to_json()),
            ("outcome", Json::Str(self.outcome.name().to_string())),
            ("deadline", self.deadline.to_json()),
            ("started", self.started.to_json()),
            ("finished", self.finished.to_json()),
            ("latency", self.latency.to_json()),
            (
                "worker",
                match self.worker {
                    Some(w) => Json::Num(f64::from(w)),
                    None => Json::Null,
                },
            ),
            (
                "result_hash",
                match &self.result_hash {
                    Some(h) => Json::Str(h.to_string()),
                    None => Json::Null,
                },
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flumen_noc::harness::RunConfig;
    use flumen_noc::traffic::TrafficPattern;
    use flumen_sweep::NetSpec;

    fn traffic_job() -> JobSpec {
        JobSpec::NocPoint {
            net: NetSpec::Flumen { nodes: 16 },
            pattern: TrafficPattern::UniformRandom,
            load: 0.1,
            cfg: RunConfig::default(),
        }
    }

    #[test]
    fn class_derives_from_job() {
        let req = Request {
            id: 0,
            client: 1,
            arrival: Cycles::new(42),
            job: traffic_job(),
        };
        assert_eq!(req.class(), RequestClass::Traffic);
        assert_eq!(req.class().name(), "traffic");
    }

    #[test]
    fn pending_record_captures_arrival() {
        let req = Request {
            id: 3,
            client: 0,
            arrival: Cycles::new(7),
            job: traffic_job(),
        };
        let rec = RequestRecord::pending(&req);
        assert_eq!(rec.arrival, 7);
        assert_eq!(rec.outcome, Outcome::Pending);
        assert_eq!(rec.outcome.name(), "pending");
        // Null optionals serialize as JSON null.
        let j = rec.to_json().to_canonical();
        assert!(j.contains("\"started\":null"), "{j}");
    }
}
