//! The full-system engine: cores, cache hierarchy, and the NoP coupled
//! cycle by cycle.
//!
//! Each core executes its [`CoreTask`] queue against a private L1d/L2 and
//! the distributed shared L3 (one slice per chiplet, address-interleaved
//! homes). L2 misses to a remote home become real request/reply packets in
//! the attached [`Network`], so the interconnect's latency and congestion
//! feed straight back into core stall time — the same mechanism Sniper +
//! Booksim coupling provides in the paper's methodology.
//!
//! An [`ExternalServer`] hook lets the Flumen runtime (the `flumen` crate)
//! model the MZIM control unit: cores submit opaque offload requests,
//! the server schedules them (Algorithm 1) while manipulating the network
//! (wire reservations), and completion — or rejection with a local-compute
//! fallback — wakes the core.

use crate::cache::Cache;
use crate::config::SystemConfig;
use crate::counts::ActivityCounts;
use crate::tasks::CoreTask;
use flumen_noc::{NetStats, Network, Packet};
use flumen_sim::{run_until, Clock, Component, Cycles, EventQueue, SimCtx, Snapshotable};
use flumen_trace::{TraceCategory, TraceEvent, TraceHandle};
use std::collections::{BTreeMap, VecDeque};

/// Opaque request payload passed from a core to the external server. For
/// MZIM offloads the five words are `[configs, vectors, n, macs,
/// matrix_key]` — see `flumen_workloads::offload_payload`.
pub type ExternalPayload = [u64; 5];

/// Completion record returned by [`ExternalServer::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExternalOutcome {
    /// The request tag being completed.
    pub tag: u64,
    /// `false` means the request was rejected and the core must run its
    /// fallback tasks instead.
    pub accepted: bool,
}

/// A co-simulated component servicing offload requests (the MZIM control
/// unit in Flumen-A runs behind this trait).
pub trait ExternalServer<N: Network> {
    /// A core submitted a request (arbitration-waveguide message).
    fn on_request(
        &mut self,
        now: u64,
        core: usize,
        chiplet: usize,
        tag: u64,
        payload: ExternalPayload,
    );
    /// Advances one cycle; may reserve/release network wires and returns
    /// any completed requests.
    fn step(&mut self, now: u64, net: &mut N) -> Vec<ExternalOutcome>;
    /// Outstanding request count (used for termination detection).
    fn outstanding(&self) -> usize;
    /// Folds the server's activity (MZIM energy events) into the run counts.
    fn drain_counts(&mut self, counts: &mut ActivityCounts);
    /// Whether [`ExternalServer::step`] is a no-op until the next
    /// [`ExternalServer::on_request`]: it would change no state, touch no
    /// wire and complete nothing. The engine skips idle cycles only while
    /// this holds; the default, "never idle", keeps every cycle stepped.
    fn is_idle(&self) -> bool {
        false
    }
}

/// A no-op server that rejects everything instantly; used by the baseline
/// topologies, where cores always compute locally.
#[derive(Debug, Default)]
pub struct NullServer {
    queue: Vec<u64>,
}

impl<N: Network> ExternalServer<N> for NullServer {
    fn on_request(
        &mut self,
        _now: u64,
        _core: usize,
        _chiplet: usize,
        tag: u64,
        _p: ExternalPayload,
    ) {
        self.queue.push(tag);
    }
    fn step(&mut self, _now: u64, _net: &mut N) -> Vec<ExternalOutcome> {
        self.queue
            .drain(..)
            .map(|tag| ExternalOutcome {
                tag,
                accepted: false,
            })
            .collect()
    }
    fn outstanding(&self) -> usize {
        self.queue.len()
    }
    fn drain_counts(&mut self, _counts: &mut ActivityCounts) {}
    fn is_idle(&self) -> bool {
        self.queue.is_empty()
    }
}

#[derive(Debug)]
struct StreamState {
    ops: u64,
    reads: Vec<u64>,
    writes: Vec<u64>,
    ri: usize,
    wi: usize,
}

#[derive(Debug)]
struct CoreState {
    queue: VecDeque<CoreTask>,
    busy_until: u64,
    waiting: usize,
    stream: Option<StreamState>,
    barrier: Option<u32>,
}

impl CoreState {
    fn idle_done(&self) -> bool {
        self.queue.is_empty()
            && self.stream.is_none()
            && self.waiting == 0
            && self.barrier.is_none()
    }
}

#[derive(Debug, Clone)]
enum ReqKind {
    RemoteLine { addr: u64, write: bool },
    Custom { server_cycles: u64, reply_bits: u32 },
    Writeback { addr: u64 },
}

#[derive(Debug, Clone)]
struct ReqInfo {
    kind: ReqKind,
    requester_core: usize,
    src_chiplet: usize,
}

/// Result of a full-system run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Total cycles simulated.
    pub cycles: u64,
    /// Whether the run hit its cycle budget before the system quiesced.
    /// A truncated run's counters describe an incomplete execution, so
    /// downstream consumers (sweep results, figure tables) surface it
    /// instead of silently treating the numbers as a finished benchmark.
    pub truncated: bool,
    /// Activity counters for the energy model.
    pub counts: ActivityCounts,
    /// Final network statistics.
    pub net_stats: NetStats,
    /// Average link utilization sampled every
    /// [`SystemSim::set_trace_interval`] cycles (empty when disabled).
    pub utilization_trace: Vec<f64>,
}

/// The coupled multicore + NoP simulator.
#[derive(Debug)]
pub struct SystemSim<N: Network, S: ExternalServer<N>> {
    cfg: SystemConfig,
    cores: Vec<CoreState>,
    l1d: Vec<Cache>,
    l2: Vec<Cache>,
    l3: Vec<Cache>,
    net: N,
    server: S,
    counts: ActivityCounts,
    cycle: u64,
    next_tag: u64,
    pending_requests: BTreeMap<u64, ReqInfo>,
    pending_replies: BTreeMap<u64, usize>,
    external_waiting: BTreeMap<u64, (usize, Vec<CoreTask>)>,
    /// Replies awaiting home-node service completion, ordered by deadline.
    server_jobs: EventQueue<Packet>,
    barrier_counts: BTreeMap<u32, usize>,
    trace_interval: u64,
    trace: Vec<f64>,
    last_trace_busy: u64,
    tracer: TraceHandle,
}

impl<N: Network, S: ExternalServer<N>> SystemSim<N, S> {
    /// Builds a system from per-core task queues.
    ///
    /// # Panics
    ///
    /// Panics if `tasks.len() != cfg.cores` or the network endpoint count
    /// differs from `cfg.chiplets`.
    pub fn new(cfg: SystemConfig, net: N, server: S, tasks: Vec<Vec<CoreTask>>) -> Self {
        assert_eq!(tasks.len(), cfg.cores, "one task queue per core");
        assert_eq!(
            net.num_nodes(),
            cfg.chiplets,
            "network endpoints must equal chiplets"
        );
        let cores = tasks
            .into_iter()
            .map(|q| CoreState {
                queue: q.into(),
                busy_until: 0,
                waiting: 0,
                stream: None,
                barrier: None,
            })
            .collect();
        let l1d = (0..cfg.cores).map(|_| Cache::new(&cfg.l1d)).collect();
        let l2 = (0..cfg.cores).map(|_| Cache::new(&cfg.l2)).collect();
        let l3 = (0..cfg.chiplets)
            .map(|_| Cache::new(&cfg.l3_slice))
            .collect();
        SystemSim {
            cfg,
            cores,
            l1d,
            l2,
            l3,
            net,
            server,
            counts: ActivityCounts::default(),
            cycle: 0,
            next_tag: 1,
            pending_requests: BTreeMap::new(),
            pending_replies: BTreeMap::new(),
            external_waiting: BTreeMap::new(),
            server_jobs: EventQueue::new(),
            barrier_counts: BTreeMap::new(),
            trace_interval: 0,
            trace: Vec::new(),
            last_trace_busy: 0,
            tracer: TraceHandle::disabled(),
        }
    }

    /// Enables link-utilization tracing with the given sample window
    /// (cycles); 0 disables.
    pub fn set_trace_interval(&mut self, interval: u64) {
        self.trace_interval = interval;
    }

    /// Installs a structured-event tracer: the system emits offload and
    /// barrier instants plus sampled cache/utilization counters (sampled
    /// on the [`SystemSim::set_trace_interval`] window), and the same
    /// handle is forwarded to the attached network for per-packet spans.
    pub fn set_tracer(&mut self, tracer: TraceHandle) {
        self.net.set_tracer(tracer.clone());
        self.tracer = tracer;
    }

    /// The system configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Current cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Immutable access to the attached network.
    pub fn network(&self) -> &N {
        &self.net
    }

    /// Whether every core has retired its queue and all traffic drained.
    pub fn finished(&self) -> bool {
        self.cores
            .iter()
            .all(|c| c.idle_done() && c.busy_until <= self.cycle)
            && self.net.pending() == 0
            && self.server_jobs.is_empty()
            && self.pending_requests.is_empty()
            && self.pending_replies.is_empty()
            && self.server.outstanding() == 0
    }

    /// Runs until [`SystemSim::finished`] or `max_cycles`, returning the
    /// result. Call once per constructed system (possibly after a
    /// checkpoint [`Snapshotable::restore`], in which case the kernel clock
    /// resumes from the restored cycle).
    pub fn run(mut self, max_cycles: u64) -> RunResult {
        let mut ctx = SimCtx::new(0);
        let mut clock = Clock::at(Cycles::new(self.cycle));
        let out = run_until(&mut self, &mut ctx, &mut clock, Cycles::new(max_cycles));
        if out.truncated {
            let now = self.cycle;
            self.tracer
                .emit(|| TraceEvent::instant(TraceCategory::System, "truncated", now, 0));
        }
        let cycles = self.cycle;
        self.server.drain_counts(&mut self.counts);
        RunResult {
            cycles,
            truncated: out.truncated,
            counts: self.counts,
            net_stats: self.net.stats().clone(),
            utilization_trace: self.trace,
        }
    }

    /// Advances the whole system by one cycle.
    pub fn step(&mut self) {
        let now = self.cycle;

        // 1. Cores.
        for c in 0..self.cores.len() {
            self.step_core(c, now);
        }

        // 2. External server (MZIM control unit).
        let outcomes = self.server.step(now, &mut self.net);
        for o in outcomes {
            if let Some((core, fallback)) = self.external_waiting.remove(&o.tag) {
                self.tracer.emit(|| {
                    TraceEvent::instant(TraceCategory::Core, "offload_done", now, core as u32)
                        .with_id(o.tag)
                        .with_arg("accepted", if o.accepted { 1.0 } else { 0.0 })
                });
                self.cores[core].waiting = self.cores[core].waiting.saturating_sub(1);
                if !o.accepted {
                    for t in fallback.into_iter().rev() {
                        self.cores[core].queue.push_front(t);
                    }
                }
            }
        }

        // 3. Due server replies (home-node L3/DRAM service completion),
        // injected in deterministic (deadline, FIFO) order.
        while let Some(pkt) = self.server_jobs.pop_due(Cycles::new(now)) {
            self.counts.nop_packets += 1;
            self.net.inject(pkt);
        }

        // 4. Network.
        let deliveries = self.net.step();
        for d in deliveries {
            self.handle_delivery(d.packet, now);
        }

        // 5. Tracing.
        if self.trace_interval > 0 && now > 0 && now.is_multiple_of(self.trace_interval) {
            let busy: u64 = self.net.stats().link_busy.iter().sum();
            let links = self.net.stats().link_busy.len().max(1) as u64;
            let delta = busy - self.last_trace_busy;
            self.last_trace_busy = busy;
            let util = delta as f64 / (self.trace_interval as f64 * links as f64);
            self.trace.push(util);
            self.tracer
                .emit(|| TraceEvent::counter(TraceCategory::System, "link_util", now, 0, util));
            let l2 = self.counts.l2_misses;
            self.tracer
                .emit(|| TraceEvent::counter(TraceCategory::System, "l2_miss", now, 0, l2 as f64));
            let l3 = self.counts.l3_misses;
            self.tracer
                .emit(|| TraceEvent::counter(TraceCategory::System, "l3_miss", now, 0, l3 as f64));
        }

        self.cycle += 1;
    }

    fn step_core(&mut self, c: usize, now: u64) {
        if self.cores[c].waiting > 0
            || self.cores[c].barrier.is_some()
            || self.cores[c].busy_until > now
        {
            return;
        }
        if self.cores[c].stream.is_some() {
            self.continue_stream(c, now);
            return;
        }
        let Some(task) = self.cores[c].queue.pop_front() else {
            return;
        };
        match task {
            CoreTask::Compute { ops } => {
                let dur = (ops as f64 / self.cfg.ipc).ceil() as u64;
                self.cores[c].busy_until = now + dur;
                self.counts.core_ops += ops;
                self.counts.l1i_accesses += ops;
                self.counts.core_busy_cycles += dur;
            }
            CoreTask::Stream { ops, reads, writes } => {
                self.cores[c].stream = Some(StreamState {
                    ops,
                    reads,
                    writes,
                    ri: 0,
                    wi: 0,
                });
                self.continue_stream(c, now);
            }
            CoreTask::NetRequest {
                dst_chiplet,
                req_bits,
                reply_bits,
                server_cycles,
            } => {
                let tag = self.fresh_tag();
                let chiplet = self.cfg.chiplet_of(c);
                let mut pkt = Packet::new(tag, chiplet, dst_chiplet, req_bits, now);
                pkt.tag = tag;
                self.pending_requests.insert(
                    tag,
                    ReqInfo {
                        kind: ReqKind::Custom {
                            server_cycles,
                            reply_bits,
                        },
                        requester_core: c,
                        src_chiplet: chiplet,
                    },
                );
                self.cores[c].waiting = 1;
                self.counts.nop_packets += 1;
                self.net.inject(pkt);
            }
            CoreTask::NetSend { dst_chiplets, bits } => {
                let tag = self.fresh_tag();
                let chiplet = self.cfg.chiplet_of(c);
                let dests: Vec<usize> =
                    dst_chiplets.into_iter().filter(|&d| d != chiplet).collect();
                if !dests.is_empty() {
                    let mut pkt = Packet::multicast(tag, chiplet, &dests, bits, now);
                    pkt.tag = tag;
                    self.counts.nop_packets += 1;
                    self.net.inject(pkt);
                }
            }
            CoreTask::Barrier { id } => {
                let count = self.barrier_counts.entry(id).or_insert(0);
                *count += 1;
                if *count == self.cfg.cores {
                    for core in &mut self.cores {
                        if core.barrier == Some(id) {
                            core.barrier = None;
                        }
                    }
                    self.tracer.emit(|| {
                        TraceEvent::instant(TraceCategory::Core, "barrier_release", now, c as u32)
                            .with_id(id as u64)
                    });
                } else {
                    self.cores[c].barrier = Some(id);
                }
            }
            CoreTask::External { payload, fallback } => {
                let tag = self.fresh_tag();
                let chiplet = self.cfg.chiplet_of(c);
                self.cores[c].waiting = 1;
                self.counts.offload_requests += 1;
                self.tracer.emit(|| {
                    TraceEvent::instant(TraceCategory::Core, "offload", now, c as u32).with_id(tag)
                });
                self.external_waiting.insert(tag, (c, fallback));
                self.server.on_request(now, c, chiplet, tag, payload);
            }
        }
    }

    /// Processes stream accesses until the core blocks on remote misses or
    /// the stream ends.
    fn continue_stream(&mut self, c: usize, now: u64) {
        let mut stream = self.cores[c].stream.take().expect("stream in progress");
        let mut local_cycles: u64 = 0;
        let mut issued = 0usize;

        while issued < self.cfg.mlp {
            let (addr, write) = if stream.ri < stream.reads.len() {
                let a = stream.reads[stream.ri];
                stream.ri += 1;
                (a, false)
            } else if stream.wi < stream.writes.len() {
                let a = stream.writes[stream.wi];
                stream.wi += 1;
                (a, true)
            } else {
                break;
            };
            match self.process_access(c, addr, write, now) {
                AccessOutcome::Local(lat) => local_cycles += lat,
                AccessOutcome::Remote => issued += 1,
            }
        }

        let finished = stream.ri >= stream.reads.len() && stream.wi >= stream.writes.len();
        if finished && issued == 0 {
            let ops = stream.ops;
            let dur = local_cycles + (ops as f64 / self.cfg.ipc).ceil() as u64;
            self.cores[c].busy_until = now + dur;
            self.counts.core_ops += ops;
            self.counts.l1i_accesses += ops;
            self.counts.core_busy_cycles += dur;
        } else {
            self.cores[c].stream = Some(stream);
            self.cores[c].busy_until = now + local_cycles;
            self.cores[c].waiting = issued;
        }
    }

    fn process_access(&mut self, c: usize, addr: u64, write: bool, now: u64) -> AccessOutcome {
        let chiplet = self.cfg.chiplet_of(c);
        self.counts.l1d_accesses += 1;
        let r1 = self.l1d[c].access(addr, write);
        if r1.hit {
            return AccessOutcome::Local(0);
        }
        self.counts.l1d_misses += 1;
        if write {
            // Posted store: the store buffer hides the miss; the line is
            // allocated dirty and the data reaches its home later via the
            // write-back path (dirty evictions below).
            if let Some(victim) = r1.dirty_evict {
                self.counts.l2_accesses += 1;
                let ev = self.l2[c].access(victim, true);
                if let Some(v2) = ev.dirty_evict {
                    self.handle_l2_eviction(chiplet, v2, now);
                }
            }
            return AccessOutcome::Local(0);
        }
        if let Some(victim) = r1.dirty_evict {
            self.counts.l2_accesses += 1;
            let ev = self.l2[c].access(victim, true);
            if let Some(v2) = ev.dirty_evict {
                self.handle_l2_eviction(chiplet, v2, now);
            }
        }

        self.counts.l2_accesses += 1;
        let mut lat = self.cfg.l2.latency;
        let r2 = self.l2[c].access(addr, false);
        if r2.hit {
            return AccessOutcome::Local(lat);
        }
        self.counts.l2_misses += 1;
        if let Some(victim) = r2.dirty_evict {
            self.handle_l2_eviction(chiplet, victim, now);
        }

        let home = self.cfg.home_of_line(addr);
        if home == chiplet {
            lat += self.l3_access(home, addr, false);
            AccessOutcome::Local(lat)
        } else {
            let tag = self.fresh_tag();
            let mut pkt = Packet::new(tag, chiplet, home, self.cfg.req_bits, now);
            pkt.tag = tag;
            self.pending_requests.insert(
                tag,
                ReqInfo {
                    kind: ReqKind::RemoteLine { addr, write },
                    requester_core: c,
                    src_chiplet: chiplet,
                },
            );
            self.counts.nop_packets += 1;
            self.net.inject(pkt);
            AccessOutcome::Remote
        }
    }

    /// Accesses an L3 slice, returning the latency incurred (including
    /// DRAM on miss).
    fn l3_access(&mut self, slice: usize, addr: u64, write: bool) -> u64 {
        self.counts.l3_accesses += 1;
        let mut lat = self.cfg.l3_slice.latency;
        let r = self.l3[slice].access(addr, write);
        if !r.hit {
            self.counts.l3_misses += 1;
            self.counts.dram_accesses += 1;
            lat += self.cfg.dram_latency;
        }
        if r.dirty_evict.is_some() {
            self.counts.dram_accesses += 1;
        }
        lat
    }

    fn handle_l2_eviction(&mut self, chiplet: usize, victim_addr: u64, now: u64) {
        let home = self.cfg.home_of_line(victim_addr);
        if home == chiplet {
            self.l3_access(home, victim_addr, true);
        } else {
            let tag = self.fresh_tag();
            let mut pkt = Packet::new(tag, chiplet, home, self.cfg.reply_bits, now);
            pkt.tag = tag;
            self.pending_requests.insert(
                tag,
                ReqInfo {
                    kind: ReqKind::Writeback { addr: victim_addr },
                    requester_core: usize::MAX,
                    src_chiplet: chiplet,
                },
            );
            self.counts.nop_packets += 1;
            self.net.inject(pkt);
        }
    }

    fn handle_delivery(&mut self, pkt: Packet, now: u64) {
        if let Some(info) = self.pending_requests.remove(&pkt.tag) {
            match info.kind {
                ReqKind::RemoteLine { addr, write } => {
                    let service = self.l3_access(pkt.dst, addr, write);
                    let mut reply =
                        Packet::new(pkt.tag, pkt.dst, info.src_chiplet, self.cfg.reply_bits, now);
                    reply.tag = pkt.tag;
                    self.pending_replies.insert(pkt.tag, info.requester_core);
                    self.server_jobs.schedule(Cycles::new(now + service), reply);
                }
                ReqKind::Custom {
                    server_cycles,
                    reply_bits,
                } => {
                    let mut reply =
                        Packet::new(pkt.tag, pkt.dst, info.src_chiplet, reply_bits, now);
                    reply.tag = pkt.tag;
                    self.pending_replies.insert(pkt.tag, info.requester_core);
                    self.server_jobs
                        .schedule(Cycles::new(now + server_cycles), reply);
                }
                ReqKind::Writeback { addr } => {
                    self.l3_access(pkt.dst, addr, true);
                }
            }
        } else if let Some(core) = self.pending_replies.remove(&pkt.tag) {
            self.cores[core].waiting = self.cores[core].waiting.saturating_sub(1);
        }
        // Fire-and-forget sends (NetSend) fall through: nothing to do.
    }

    fn fresh_tag(&mut self) -> u64 {
        let t = self.next_tag;
        self.next_tag += 1;
        t
    }
}

#[derive(Debug, Clone, Copy)]
enum AccessOutcome {
    Local(u64),
    Remote,
}

// The engine as a kernel component: it keeps its own `cycle` field (every
// internal path reads it) and the kernel clock mirrors it one-for-one.
// `SystemSim::step` stays the per-cycle reference; idle spans are crossed
// by advancing only the network and the cycle, which is all an idle step
// changes.
impl<N: Network, S: ExternalServer<N>> Component for SystemSim<N, S> {
    fn step(&mut self, now: Cycles, _ctx: &mut SimCtx) {
        debug_assert_eq!(
            now.value(),
            self.cycle,
            "kernel clock and engine cycle must agree"
        );
        self.step();
    }

    fn done(&self, _now: Cycles) -> bool {
        self.finished()
    }

    /// A cycle is idle when the network is drained, the server is idle,
    /// and every core is busy, waiting, at a barrier, or out of work. Such
    /// a cycle changes nothing but the clock and the network's counters,
    /// until the earliest of: a core's `busy_until` (even with an empty
    /// queue, since [`SystemSim::finished`] flips then), the head of
    /// `server_jobs`, and the next utilization sample.
    fn idle_until(&self, now: Cycles) -> Option<Cycles> {
        debug_assert_eq!(now.value(), self.cycle);
        let now = self.cycle;
        if self.net.pending() != 0 || !self.server.is_idle() {
            return None;
        }
        let mut next = u64::MAX;
        for core in &self.cores {
            if core.busy_until > now {
                next = next.min(core.busy_until);
            } else if core.waiting == 0
                && core.barrier.is_none()
                && (core.stream.is_some() || !core.queue.is_empty())
            {
                return None;
            }
        }
        if let Some(t) = self.server_jobs.peek_deadline() {
            next = next.min(t.value());
        }
        if self.trace_interval > 0 {
            // Samples fall on the positive multiples of the interval.
            let iv = self.trace_interval;
            next = next.min(now.div_ceil(iv).max(1).saturating_mul(iv));
        }
        (next > now).then_some(Cycles::new(next))
    }

    fn advance_idle(&mut self, now: Cycles, to: Cycles) {
        debug_assert_eq!(now.value(), self.cycle);
        self.net.advance_idle(to.value() - self.cycle);
        self.cycle = to.value();
    }
}

// ---------------------------------------------------------------------------
// Checkpoint bridges for the engine's internal state. Byte addresses and
// offload payload words use the full u64 range, so they ride as hex.

impl flumen_sim::ToJson for StreamState {
    fn to_json(&self) -> flumen_sim::Json {
        use flumen_sim::{json::u64s_hex, Json};
        Json::obj([
            ("ops", self.ops.to_json()),
            ("reads", u64s_hex(&self.reads)),
            ("ri", self.ri.to_json()),
            ("wi", self.wi.to_json()),
            ("writes", u64s_hex(&self.writes)),
        ])
    }
}

impl flumen_sim::FromJson for StreamState {
    fn from_json(j: &flumen_sim::Json) -> Result<Self, flumen_sim::JsonError> {
        use flumen_sim::json::u64s_from_hex;
        Ok(StreamState {
            ops: u64::from_json(j.get("ops")?)?,
            reads: u64s_from_hex(j.get("reads")?)?,
            writes: u64s_from_hex(j.get("writes")?)?,
            ri: usize::from_json(j.get("ri")?)?,
            wi: usize::from_json(j.get("wi")?)?,
        })
    }
}

flumen_sim::json_struct!(CoreState {
    barrier,
    busy_until,
    queue,
    stream,
    waiting
});

flumen_sim::json_struct!(ExternalOutcome { accepted, tag });

impl flumen_sim::ToJson for ReqKind {
    fn to_json(&self) -> flumen_sim::Json {
        use flumen_sim::{json::u64_hex, Json};
        match self {
            ReqKind::RemoteLine { addr, write } => Json::obj([
                ("kind", Json::Str("remote_line".into())),
                ("addr", u64_hex(*addr)),
                ("write", write.to_json()),
            ]),
            ReqKind::Custom {
                server_cycles,
                reply_bits,
            } => Json::obj([
                ("kind", Json::Str("custom".into())),
                ("reply_bits", reply_bits.to_json()),
                ("server_cycles", server_cycles.to_json()),
            ]),
            ReqKind::Writeback { addr } => Json::obj([
                ("kind", Json::Str("writeback".into())),
                ("addr", u64_hex(*addr)),
            ]),
        }
    }
}

impl flumen_sim::FromJson for ReqKind {
    fn from_json(j: &flumen_sim::Json) -> Result<Self, flumen_sim::JsonError> {
        use flumen_sim::{json::u64_from_hex, JsonError};
        Ok(match j.get("kind")?.as_str()? {
            "remote_line" => ReqKind::RemoteLine {
                addr: u64_from_hex(j.get("addr")?)?,
                write: bool::from_json(j.get("write")?)?,
            },
            "custom" => ReqKind::Custom {
                server_cycles: u64::from_json(j.get("server_cycles")?)?,
                reply_bits: u32::from_json(j.get("reply_bits")?)?,
            },
            "writeback" => ReqKind::Writeback {
                addr: u64_from_hex(j.get("addr")?)?,
            },
            other => return Err(JsonError(format!("ReqKind: unknown variant {other:?}"))),
        })
    }
}

// `requester_core` is `usize::MAX` for fire-and-forget writebacks —
// outside f64's exact range, so it rides as hex.
impl flumen_sim::ToJson for ReqInfo {
    fn to_json(&self) -> flumen_sim::Json {
        use flumen_sim::{json::u64_hex, Json};
        Json::obj([
            ("kind", self.kind.to_json()),
            ("requester_core", u64_hex(self.requester_core as u64)),
            ("src_chiplet", self.src_chiplet.to_json()),
        ])
    }
}

impl flumen_sim::FromJson for ReqInfo {
    fn from_json(j: &flumen_sim::Json) -> Result<Self, flumen_sim::JsonError> {
        use flumen_sim::json::u64_from_hex;
        Ok(ReqInfo {
            kind: ReqKind::from_json(j.get("kind")?)?,
            requester_core: u64_from_hex(j.get("requester_core")?)? as usize,
            src_chiplet: usize::from_json(j.get("src_chiplet")?)?,
        })
    }
}

impl Snapshotable for NullServer {
    fn snapshot(&self) -> flumen_sim::Json {
        use flumen_sim::{Json, ToJson};
        Json::obj([("queue", self.queue.to_json())])
    }

    fn restore(&mut self, j: &flumen_sim::Json) -> Result<(), flumen_sim::JsonError> {
        self.queue = flumen_sim::FromJson::from_json(j.get("queue")?)?;
        Ok(())
    }
}

fn caches_snapshot(caches: &[Cache]) -> flumen_sim::Json {
    flumen_sim::Json::Arr(caches.iter().map(Snapshotable::snapshot).collect())
}

fn caches_restore(
    caches: &mut [Cache],
    j: &flumen_sim::Json,
    what: &str,
) -> Result<(), flumen_sim::JsonError> {
    let arr = j.as_arr()?;
    if arr.len() != caches.len() {
        return Err(flumen_sim::JsonError(format!(
            "{what}: snapshot has {} caches, instance has {}",
            arr.len(),
            caches.len()
        )));
    }
    for (c, jc) in caches.iter_mut().zip(arr) {
        c.restore(jc)?;
    }
    Ok(())
}

// Full-system checkpoints capture every field that evolves during
// [`SystemSim::step`]. Configuration (`cfg`, `trace_interval`) and the
// tracer are not serialized: restore happens onto a freshly constructed,
// identically-configured instance whose remaining task queues are part of
// the captured core state.
impl<N, S> Snapshotable for SystemSim<N, S>
where
    N: Network + Snapshotable,
    S: ExternalServer<N> + Snapshotable,
{
    fn snapshot(&self) -> flumen_sim::Json {
        use flumen_sim::{Json, ToJson};
        Json::obj([
            ("barrier_counts", self.barrier_counts.to_json()),
            ("cores", self.cores.to_json()),
            ("counts", self.counts.to_json()),
            ("cycle", self.cycle.to_json()),
            ("external_waiting", self.external_waiting.to_json()),
            ("l1d", caches_snapshot(&self.l1d)),
            ("l2", caches_snapshot(&self.l2)),
            ("l3", caches_snapshot(&self.l3)),
            ("last_trace_busy", self.last_trace_busy.to_json()),
            ("net", self.net.snapshot()),
            ("next_tag", self.next_tag.to_json()),
            ("pending_replies", self.pending_replies.to_json()),
            ("pending_requests", self.pending_requests.to_json()),
            ("server", self.server.snapshot()),
            ("server_jobs", self.server_jobs.to_json()),
            ("trace", self.trace.to_json()),
        ])
    }

    fn restore(&mut self, j: &flumen_sim::Json) -> Result<(), flumen_sim::JsonError> {
        use flumen_sim::FromJson;
        self.barrier_counts = BTreeMap::from_json(j.get("barrier_counts")?)?;
        let cores: Vec<CoreState> = Vec::from_json(j.get("cores")?)?;
        // A core count other than the configured one would index past the
        // per-core caches (more cores) or never release a barrier (fewer).
        if cores.len() != self.cfg.cores {
            return Err(flumen_sim::JsonError(format!(
                "SystemSim.cores: snapshot has {} cores, instance has {}",
                cores.len(),
                self.cfg.cores
            )));
        }
        self.cores = cores;
        self.counts = ActivityCounts::from_json(j.get("counts")?)?;
        self.cycle = u64::from_json(j.get("cycle")?)?;
        self.external_waiting = BTreeMap::from_json(j.get("external_waiting")?)?;
        caches_restore(&mut self.l1d, j.get("l1d")?, "SystemSim.l1d")?;
        caches_restore(&mut self.l2, j.get("l2")?, "SystemSim.l2")?;
        caches_restore(&mut self.l3, j.get("l3")?, "SystemSim.l3")?;
        self.last_trace_busy = u64::from_json(j.get("last_trace_busy")?)?;
        self.net.restore(j.get("net")?)?;
        self.next_tag = u64::from_json(j.get("next_tag")?)?;
        self.pending_replies = BTreeMap::from_json(j.get("pending_replies")?)?;
        self.pending_requests = BTreeMap::from_json(j.get("pending_requests")?)?;
        self.server.restore(j.get("server")?)?;
        self.server_jobs = EventQueue::from_json(j.get("server_jobs")?)?;
        self.trace = Vec::from_json(j.get("trace")?)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flumen_noc::MzimCrossbar;

    fn tiny_cfg() -> SystemConfig {
        SystemConfig {
            cores: 4,
            chiplets: 4,
            ..SystemConfig::paper()
        }
    }

    fn net4() -> MzimCrossbar {
        MzimCrossbar::new(4, flumen_noc::CrossbarConfig::default()).unwrap()
    }

    fn empty_tasks(n: usize) -> Vec<Vec<CoreTask>> {
        (0..n).map(|_| Vec::new()).collect()
    }

    #[test]
    fn empty_system_finishes_immediately() {
        let sim = SystemSim::new(tiny_cfg(), net4(), NullServer::default(), empty_tasks(4));
        let r = sim.run(1000);
        assert!(r.cycles < 5);
        assert_eq!(r.counts.core_ops, 0);
    }

    #[test]
    fn compute_task_advances_time() {
        let mut tasks = empty_tasks(4);
        tasks[0].push(CoreTask::Compute { ops: 1000 });
        let sim = SystemSim::new(tiny_cfg(), net4(), NullServer::default(), tasks);
        let r = sim.run(10_000);
        // 1000 ops at IPC 2 = 500 cycles.
        assert!(r.cycles >= 500 && r.cycles < 600, "{}", r.cycles);
        assert_eq!(r.counts.core_ops, 1000);
    }

    #[test]
    fn local_stream_hits_after_warmup() {
        let cfg = tiny_cfg();
        // Lines homed on chiplet 0 (core 0's own chiplet): addr % (4*64) == 0.
        let addrs: Vec<u64> = (0..16u64).map(|i| i * 4 * 64).collect();
        let mut tasks = empty_tasks(4);
        tasks[0].push(CoreTask::Stream {
            ops: 0,
            reads: addrs.clone(),
            writes: vec![],
        });
        tasks[0].push(CoreTask::Stream {
            ops: 0,
            reads: addrs,
            writes: vec![],
        });
        let sim = SystemSim::new(cfg, net4(), NullServer::default(), tasks);
        let r = sim.run(100_000);
        assert_eq!(r.counts.l1d_accesses, 32);
        assert_eq!(r.counts.l1d_misses, 16, "second pass must hit in L1");
        assert_eq!(r.counts.nop_packets, 0, "local homes produce no traffic");
    }

    #[test]
    fn remote_stream_generates_noc_traffic() {
        let cfg = tiny_cfg();
        // Lines homed on chiplet 1, accessed by core 0 (chiplet 0).
        let addrs: Vec<u64> = (0..8u64).map(|i| 64 + i * 4 * 64).collect();
        let mut tasks = empty_tasks(4);
        tasks[0].push(CoreTask::Stream {
            ops: 0,
            reads: addrs,
            writes: vec![],
        });
        let sim = SystemSim::new(cfg, net4(), NullServer::default(), tasks);
        let r = sim.run(100_000);
        assert_eq!(r.counts.l2_misses, 8);
        // 8 requests + 8 replies.
        assert_eq!(r.counts.nop_packets, 16);
        assert!(r.net_stats.delivered >= 16);
        assert!(r.cycles > 20, "network round trips take time");
    }

    #[test]
    fn barrier_synchronizes_all_cores() {
        let mut tasks = empty_tasks(4);
        // Core 0 computes a long block before the barrier; others arrive
        // instantly but must wait.
        tasks[0].push(CoreTask::Compute { ops: 2000 });
        for t in tasks.iter_mut() {
            t.push(CoreTask::Barrier { id: 1 });
            t.push(CoreTask::Compute { ops: 10 });
        }
        let sim = SystemSim::new(tiny_cfg(), net4(), NullServer::default(), tasks);
        let r = sim.run(100_000);
        // All finish shortly after core 0's 1000 cycles.
        assert!(r.cycles >= 1000 && r.cycles < 1200, "{}", r.cycles);
    }

    #[test]
    fn net_request_round_trip() {
        let mut tasks = empty_tasks(4);
        tasks[0].push(CoreTask::NetRequest {
            dst_chiplet: 3,
            req_bits: 128,
            reply_bits: 512,
            server_cycles: 50,
        });
        let sim = SystemSim::new(tiny_cfg(), net4(), NullServer::default(), tasks);
        let r = sim.run(100_000);
        assert!(r.cycles >= 50, "{}", r.cycles);
        assert_eq!(r.counts.nop_packets, 2);
    }

    #[test]
    fn external_rejection_runs_fallback() {
        let mut tasks = empty_tasks(4);
        tasks[1].push(CoreTask::External {
            payload: [0; 5],
            fallback: vec![CoreTask::Compute { ops: 500 }],
        });
        let sim = SystemSim::new(tiny_cfg(), net4(), NullServer::default(), tasks);
        let r = sim.run(100_000);
        // NullServer rejects; the fallback compute runs (500/2 = 250 cycles).
        assert_eq!(r.counts.core_ops, 500);
        assert!(r.cycles >= 250);
        assert_eq!(r.counts.offload_requests, 1);
    }

    #[test]
    fn netsend_multicast_counts_once() {
        let mut tasks = empty_tasks(4);
        tasks[0].push(CoreTask::NetSend {
            dst_chiplets: vec![1, 2, 3],
            bits: 1024,
        });
        let sim = SystemSim::new(tiny_cfg(), net4(), NullServer::default(), tasks);
        let r = sim.run(100_000);
        assert_eq!(r.counts.nop_packets, 1);
        assert_eq!(r.net_stats.delivered, 3);
    }

    #[test]
    fn writes_produce_writeback_traffic() {
        let cfg = tiny_cfg();
        // Write enough remote-homed lines to overflow L1+L2 sets and force
        // dirty evictions toward a remote home.
        let addrs: Vec<u64> = (0..40_000u64).map(|i| 64 + i * 4 * 64).collect();
        let mut tasks = empty_tasks(4);
        tasks[0].push(CoreTask::Stream {
            ops: 0,
            reads: vec![],
            writes: addrs,
        });
        let sim = SystemSim::new(cfg, net4(), NullServer::default(), tasks);
        let r = sim.run(10_000_000);
        assert!(r.counts.dram_accesses > 0);
        // Writebacks (fire-and-forget) on top of request/reply pairs.
        assert!(r.counts.nop_packets as f64 > 2.0 * r.counts.l2_misses as f64 * 0.9);
    }

    #[test]
    fn tracer_captures_core_and_system_events() {
        use flumen_trace::{EventKind, RecordingTracer, TraceCategory};
        let cfg = tiny_cfg();
        let addrs: Vec<u64> = (0..64u64).map(|i| 64 + i * 4 * 64).collect();
        let mut tasks = empty_tasks(4);
        tasks[0].push(CoreTask::Stream {
            ops: 0,
            reads: addrs,
            writes: vec![],
        });
        tasks[1].push(CoreTask::External {
            payload: [0; 5],
            fallback: vec![],
        });
        for t in tasks.iter_mut() {
            t.push(CoreTask::Barrier { id: 7 });
        }
        let rec = RecordingTracer::new();
        let mut sim = SystemSim::new(cfg, net4(), NullServer::default(), tasks);
        sim.set_tracer(rec.handle());
        sim.set_trace_interval(50);
        let r = sim.run(1_000_000);
        assert!(r.cycles > 0);
        let evs = rec.events();
        let has = |cat: TraceCategory, name: &str| {
            evs.iter().any(|e| e.category == cat && e.name == name)
        };
        assert!(has(TraceCategory::Core, "offload"));
        assert!(has(TraceCategory::Core, "offload_done"));
        assert!(has(TraceCategory::Core, "barrier_release"));
        assert!(has(TraceCategory::System, "link_util"));
        assert!(has(TraceCategory::System, "l2_miss"));
        // The forwarded handle reaches the network: packet spans appear.
        assert!(evs
            .iter()
            .any(|e| e.category == TraceCategory::Noc && e.kind == EventKind::AsyncBegin));
    }

    #[test]
    fn run_reports_truncation() {
        let mut tasks = empty_tasks(4);
        tasks[0].push(CoreTask::Compute { ops: 100_000 });
        let sim = SystemSim::new(tiny_cfg(), net4(), NullServer::default(), tasks.clone());
        let r = sim.run(100);
        assert!(r.truncated, "cycle budget hit before quiescence");
        assert_eq!(r.cycles, 100);
        let sim2 = SystemSim::new(tiny_cfg(), net4(), NullServer::default(), tasks);
        let r2 = sim2.run(10_000_000);
        assert!(!r2.truncated);
    }

    /// Remote-homed traffic that keeps the network, caches, pending maps
    /// and server-jobs queue all populated mid-run.
    fn mid_run_tasks() -> Vec<Vec<CoreTask>> {
        let mut tasks = empty_tasks(4);
        let reads: Vec<u64> = (0..200u64).map(|i| 64 + i * 4 * 64).collect();
        let writes: Vec<u64> = (0..120u64).map(|i| 128 + i * 4 * 64).collect();
        tasks[0].push(CoreTask::Stream {
            ops: 50,
            reads,
            writes,
        });
        tasks[1].push(CoreTask::NetRequest {
            dst_chiplet: 3,
            req_bits: 128,
            reply_bits: 512,
            server_cycles: 500,
        });
        for t in tasks.iter_mut() {
            t.push(CoreTask::Barrier { id: 2 });
            t.push(CoreTask::Compute { ops: 64 });
        }
        tasks
    }

    #[test]
    fn snapshot_mid_run_resumes_bit_identically() {
        let mut a = SystemSim::new(tiny_cfg(), net4(), NullServer::default(), mid_run_tasks());
        a.set_trace_interval(50);
        for _ in 0..150 {
            a.step();
        }
        assert!(!a.finished(), "checkpoint must land mid-run");
        let snap = a.snapshot();

        let mut b = SystemSim::new(tiny_cfg(), net4(), NullServer::default(), mid_run_tasks());
        b.set_trace_interval(50);
        b.restore(&snap).unwrap();
        assert_eq!(b.cycle, a.cycle);

        let mut guard = 0;
        while !(a.finished() && b.finished()) {
            assert_eq!(a.finished(), b.finished(), "divergence at {}", a.cycle);
            a.step();
            b.step();
            guard += 1;
            assert!(guard < 1_000_000, "runaway");
        }
        assert_eq!(a.cycle, b.cycle);
        assert_eq!(a.counts, b.counts);
        assert_eq!(a.next_tag, b.next_tag);
        let bits = |t: &[f64]| t.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a.trace), bits(&b.trace));
        assert_eq!(a.net.stats().delivered, b.net.stats().delivered);
        assert_eq!(a.net.stats().latency_sum, b.net.stats().latency_sum);
        assert_eq!(a.net.stats().link_busy, b.net.stats().link_busy);
    }

    #[test]
    fn restore_rejects_a_core_count_other_than_the_configured_one() {
        let mut a = SystemSim::new(tiny_cfg(), net4(), NullServer::default(), mid_run_tasks());
        for _ in 0..150 {
            a.step();
        }
        assert!(!a.finished(), "checkpoint must land mid-run");
        let snap = a.snapshot();
        let with_cores = |edit: &dyn Fn(&mut Vec<flumen_sim::Json>)| {
            let mut j = snap.clone();
            if let flumen_sim::Json::Obj(m) = &mut j {
                if let Some(flumen_sim::Json::Arr(cores)) = m.get_mut("cores") {
                    edit(cores);
                }
            }
            j
        };
        let dropped = with_cores(&|cores| {
            cores.pop();
        });
        let appended = with_cores(&|cores| cores.push(cores[0].clone()));
        for (what, tampered) in [("dropped", dropped), ("appended", appended)] {
            let mut b = SystemSim::new(tiny_cfg(), net4(), NullServer::default(), mid_run_tasks());
            let err = b.restore(&tampered).expect_err(what);
            assert!(err.0.contains("cores"), "{what}: {err}");
            // The instance is not stepped: a longer core array would index
            // past the per-core caches, a shorter one never releases the
            // barrier.
        }
    }

    #[test]
    fn utilization_trace_records_windows() {
        let cfg = tiny_cfg();
        let addrs: Vec<u64> = (0..64u64).map(|i| 64 + i * 4 * 64).collect();
        let mut tasks = empty_tasks(4);
        tasks[0].push(CoreTask::Stream {
            ops: 0,
            reads: addrs,
            writes: vec![],
        });
        let mut sim = SystemSim::new(cfg, net4(), NullServer::default(), tasks);
        sim.set_trace_interval(50);
        let r = sim.run(1_000_000);
        assert!(!r.utilization_trace.is_empty());
        assert!(r.utilization_trace.iter().any(|&u| u > 0.0));
        assert!(r
            .utilization_trace
            .iter()
            .all(|&u| (0.0..=1.0).contains(&u)));
    }
}
