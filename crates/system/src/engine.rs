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
use crate::tag_table::TagTable;
use crate::tasks::CoreTask;
use flumen_noc::{NetStats, Network, Packet};
use flumen_sim::{Cycles, EventQueue, Snapshotable};
use flumen_trace::{TraceCategory, TraceEvent, TraceHandle};
use std::collections::{BTreeMap, VecDeque};

/// Opaque request payload passed from a core to the external server. For
/// MZIM offloads the four words are `[configs, vectors, n, macs]`: the
/// partition's block count, vector count and width, and the strip's MAC
/// count — see `flumen_workloads::offload_payload`.
pub type ExternalPayload = [u64; 4];

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
    /// The cycle, after the current one, up to which every
    /// [`ExternalServer::step`] with no [`ExternalServer::on_request`]
    /// between would touch no wire, complete nothing and change no state
    /// that [`ExternalServer::advance_quiet`] cannot reproduce; `u64::MAX`
    /// when that holds until the next request. The engine skips idle
    /// cycles only inside such a span; the default, `None`, keeps every
    /// cycle stepped.
    fn quiet_until(&self) -> Option<u64> {
        None
    }
    /// Applies what `cycles` steps inside a span reported by
    /// [`ExternalServer::quiet_until`] would have changed.
    fn advance_quiet(&mut self, _cycles: u64) {}
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
    fn quiet_until(&self) -> Option<u64> {
        self.queue.is_empty().then_some(u64::MAX)
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

/// Where a core stands in the fallback that a rejected offload pushed to
/// the front of its queue.
#[derive(Debug, Clone, Copy)]
struct FallbackCursor {
    /// Fallback tasks popped so far.
    popped: usize,
    /// The fallback's length.
    len: usize,
}

#[derive(Debug)]
struct CoreState {
    queue: VecDeque<CoreTask>,
    /// Tasks popped from the core's constructed list. With `fallback`,
    /// this cursor is what a snapshot holds in place of the queue.
    taken: usize,
    /// Set while the core works through the fallback of task `taken - 1`,
    /// a rejected offload.
    fallback: Option<FallbackCursor>,
    busy_until: u64,
    waiting: usize,
    stream: Option<StreamState>,
    barrier: Option<u32>,
}

impl CoreState {
    /// Pops the next task and moves the cursor past it.
    fn pop_task(&mut self) -> Option<CoreTask> {
        let task = self.queue.pop_front()?;
        match &mut self.fallback {
            Some(f) if f.popped < f.len => f.popped += 1,
            _ => {
                self.fallback = None;
                self.taken += 1;
            }
        }
        Some(task)
    }

    fn idle_done(&self) -> bool {
        self.queue.is_empty()
            && self.stream.is_none()
            && self.waiting == 0
            && self.barrier.is_none()
    }

    /// The first cycle after `now` at which a step of this core can do
    /// anything, absent a reply, an offload outcome or a barrier release.
    fn wake(&self, now: u64) -> u64 {
        if self.waiting > 0 || self.barrier.is_some() {
            u64::MAX
        } else if self.busy_until > now {
            self.busy_until
        } else if self.stream.is_some() || !self.queue.is_empty() {
            now + 1
        } else {
            u64::MAX
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum ReqKind {
    RemoteLine { addr: u64, write: bool },
    Custom { server_cycles: u64, reply_bits: u32 },
    Writeback { addr: u64 },
}

#[derive(Debug, Clone, Copy)]
struct ReqInfo {
    kind: ReqKind,
    requester_core: usize,
    src_chiplet: usize,
}

/// What a live packet tag is waiting for: its request's delivery, or the
/// delivery of the reply that reuses the request's tag (to `usize`, the
/// requesting core).
#[derive(Debug, Clone, Copy)]
enum Pending {
    Request(ReqInfo),
    Reply(usize),
}

/// The widest span of pending tags a restored snapshot may hold. The
/// tag window is dense over that span, so this bounds what a hostile
/// snapshot can make restore allocate; on the paper grid the span stays
/// near 650 tags.
const MAX_TAG_SPAN: u64 = 1 << 20;

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
    /// Per core, the first cycle at which stepping it can do anything
    /// (`CoreState::wake`, set after each step of the core). A reply, an
    /// offload outcome or a barrier release resets it to 0. Derived state,
    /// not serialized; restore resets it to 0.
    wake: Vec<u64>,
    net: N,
    server: S,
    counts: ActivityCounts,
    cycle: u64,
    next_tag: u64,
    /// Requests and replies in the network or in home-node service, by
    /// tag. Serialized as the two maps `pending_requests` and
    /// `pending_replies`.
    pending: TagTable<Pending>,
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
    /// Panics if `tasks.len() != cfg.cores`, the network endpoint count
    /// differs from `cfg.chiplets`, a task (or an offload's fallback)
    /// sends to a chiplet `≥ cfg.chiplets`, or an offload's fallback holds
    /// another offload.
    pub fn new(cfg: SystemConfig, net: N, server: S, tasks: Vec<Vec<CoreTask>>) -> Self {
        assert_eq!(tasks.len(), cfg.cores, "one task queue per core");
        assert_eq!(
            net.num_nodes(),
            cfg.chiplets,
            "network endpoints must equal chiplets"
        );
        for task in tasks.iter().flatten() {
            let fallback: &[CoreTask] = match task {
                CoreTask::External { fallback, .. } => fallback,
                _ => &[],
            };
            // A reject inside a fallback would need a second fallback
            // cursor; no workload nests offloads.
            if fallback
                .iter()
                .any(|t| matches!(t, CoreTask::External { .. }))
            {
                // flumen-check: allow(no-panic-hot-path) — constructor input validation, documented under `# Panics`
                panic!("an offload's fallback holds another offload");
            }
            // Issuing such a task would index past the network's per-node
            // queues.
            let mut named = std::iter::once(task)
                .chain(fallback)
                .flat_map(named_chiplets);
            if let Some(chiplet) = named.find(|&&c| c >= cfg.chiplets) {
                // flumen-check: allow(no-panic-hot-path) — constructor input validation, documented under `# Panics`
                panic!(
                    "a task names chiplet {chiplet}, system has {}",
                    cfg.chiplets
                );
            }
        }
        let cores = tasks
            .into_iter()
            .map(|q| CoreState {
                queue: q.into(),
                taken: 0,
                fallback: None,
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
            wake: vec![0; cfg.cores],
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
            pending: TagTable::new(),
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
            && self.pending.is_empty()
            && self.server.outstanding() == 0
    }

    /// Runs until [`SystemSim::finished`] or `max_cycles`, returning the
    /// result. Call once per constructed system (possibly after a
    /// checkpoint [`Snapshotable::restore`], in which case the run resumes
    /// from the restored cycle).
    pub fn run(mut self, max_cycles: u64) -> RunResult {
        self.run_to(max_cycles);
        // `run_to` leaves a system unfinished only at the cap.
        let truncated = !self.finished();
        if truncated {
            let now = self.cycle;
            self.tracer
                .emit(|| TraceEvent::instant(TraceCategory::System, "truncated", now, 0));
        }
        let cycles = self.cycle;
        self.server.drain_counts(&mut self.counts);
        RunResult {
            cycles,
            truncated,
            counts: self.counts,
            net_stats: self.net.stats().clone(),
            utilization_trace: self.trace,
        }
    }

    /// Runs until [`SystemSim::finished`] or cycle `stop`, whichever comes
    /// first, jumping each quiet span in one [`SystemSim::advance_quiet`]
    /// capped at `stop`; the system can be snapshotted there and run on.
    pub fn run_to(&mut self, stop: u64) {
        while !self.finished() && self.cycle < stop {
            match self.quiet_until() {
                Some(until) => self.advance_quiet(until.min(stop) - self.cycle),
                None => self.step(),
            }
        }
    }

    /// The end of the quiet span from the current cycle, or `None` when
    /// this cycle must be stepped. Stepping each cycle of the span would
    /// change only what [`SystemSim::advance_quiet`] changes and would not
    /// flip [`SystemSim::finished`]. It ends at the earliest of: the
    /// network's and the server's quiet spans, a core's wake cycle (a
    /// `busy_until` counts even with an empty queue, since `finished`
    /// flips then), the head of `server_jobs`, and the next utilization
    /// sample. The network is asked first: it is the cheapest test that
    /// fails on a busy cycle.
    pub fn quiet_until(&self) -> Option<u64> {
        let now = self.cycle;
        let mut next = self.net.quiet_until()?;
        next = next.min(self.server.quiet_until()?);
        for &wake in &self.wake {
            if wake <= now {
                return None;
            }
            next = next.min(wake);
        }
        if let Some(t) = self.server_jobs.peek_deadline() {
            next = next.min(t.value());
        }
        if self.trace_interval > 0 {
            // Samples fall on the positive multiples of the interval.
            let iv = self.trace_interval;
            next = next.min(now.div_ceil(iv).max(1).saturating_mul(iv));
        }
        (next > now).then_some(next)
    }

    /// Crosses `cycles` cycles of a [`SystemSim::quiet_until`] span: a
    /// quiet step changes only the server, the network and the cycle.
    pub fn advance_quiet(&mut self, cycles: u64) {
        self.server.advance_quiet(cycles);
        self.net.advance_quiet(cycles);
        self.cycle += cycles;
    }

    /// Advances the whole system by one cycle.
    pub fn step(&mut self) {
        let now = self.cycle;

        // 1. Cores. A core stepped before its wake cycle would do
        // nothing. A barrier release resets later cores' wake cycles
        // within this loop, so they step this cycle, as before.
        for c in 0..self.cores.len() {
            if self.wake[c] <= now {
                self.step_core(c, now);
                self.wake[c] = self.cores[c].wake(now);
            }
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
                self.wake[core] = 0;
                let core = &mut self.cores[core];
                core.waiting = core.waiting.saturating_sub(1);
                if !o.accepted {
                    core.fallback = Some(FallbackCursor {
                        popped: 0,
                        len: fallback.len(),
                    });
                    for t in fallback.into_iter().rev() {
                        core.queue.push_front(t);
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
        if let Some(stream) = self.cores[c].stream.take() {
            self.continue_stream(c, now, stream);
            return;
        }
        let Some(task) = self.cores[c].pop_task() else {
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
                let stream = StreamState {
                    ops,
                    reads,
                    writes,
                    ri: 0,
                    wi: 0,
                };
                self.continue_stream(c, now, stream);
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
                self.pending.insert(
                    tag,
                    Pending::Request(ReqInfo {
                        kind: ReqKind::Custom {
                            server_cycles,
                            reply_bits,
                        },
                        requester_core: c,
                        src_chiplet: chiplet,
                    }),
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
                    for (core, wake) in self.cores.iter_mut().zip(&mut self.wake) {
                        if core.barrier == Some(id) {
                            core.barrier = None;
                            *wake = 0;
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
    /// the stream ends; an unfinished stream goes back to the core.
    fn continue_stream(&mut self, c: usize, now: u64, mut stream: StreamState) {
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
            self.pending.insert(
                tag,
                Pending::Request(ReqInfo {
                    kind: ReqKind::RemoteLine { addr, write },
                    requester_core: c,
                    src_chiplet: chiplet,
                }),
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
            self.pending.insert(
                tag,
                Pending::Request(ReqInfo {
                    kind: ReqKind::Writeback { addr: victim_addr },
                    requester_core: usize::MAX,
                    src_chiplet: chiplet,
                }),
            );
            self.counts.nop_packets += 1;
            self.net.inject(pkt);
        }
    }

    fn handle_delivery(&mut self, pkt: Packet, now: u64) {
        // Fire-and-forget sends (NetSend) hold no tag: nothing to do.
        let Some(&pending) = self.pending.get(pkt.tag) else {
            return;
        };
        match pending {
            // The reply takes over its request's tag, in place.
            Pending::Request(info) => match info.kind {
                ReqKind::RemoteLine { addr, write } => {
                    let service = self.l3_access(pkt.dst, addr, write);
                    let mut reply =
                        Packet::new(pkt.tag, pkt.dst, info.src_chiplet, self.cfg.reply_bits, now);
                    reply.tag = pkt.tag;
                    self.pending
                        .insert(pkt.tag, Pending::Reply(info.requester_core));
                    self.server_jobs.schedule(Cycles::new(now + service), reply);
                }
                ReqKind::Custom {
                    server_cycles,
                    reply_bits,
                } => {
                    let mut reply =
                        Packet::new(pkt.tag, pkt.dst, info.src_chiplet, reply_bits, now);
                    reply.tag = pkt.tag;
                    self.pending
                        .insert(pkt.tag, Pending::Reply(info.requester_core));
                    self.server_jobs
                        .schedule(Cycles::new(now + server_cycles), reply);
                }
                ReqKind::Writeback { addr } => {
                    self.pending.remove(pkt.tag);
                    self.l3_access(pkt.dst, addr, true);
                }
            },
            Pending::Reply(core) => {
                self.pending.remove(pkt.tag);
                self.cores[core].waiting = self.cores[core].waiting.saturating_sub(1);
                self.wake[core] = 0;
            }
        }
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

// ---------------------------------------------------------------------------
// Checkpoint bridges for the engine's internal state. Byte addresses use
// the full u64 range, so they ride as hex.

/// A core as a snapshot holds it. Restore targets a freshly built
/// instance, whose queues are the constructed task lists, so a cursor into
/// that list stands for the queue and a position stands for a stream.
struct CoreSnapshot {
    barrier: Option<u32>,
    busy_until: u64,
    waiting: usize,
    /// [`CoreState::taken`].
    taken: usize,
    /// The fallback tasks popped, while inside the fallback of task
    /// `taken - 1`.
    fallback: Option<usize>,
    /// The read and write positions of the stream in progress: the last
    /// popped task.
    stream: Option<(usize, usize)>,
}

flumen_sim::json_struct!(CoreSnapshot {
    barrier,
    busy_until,
    fallback,
    stream,
    taken,
    waiting
});

impl CoreSnapshot {
    /// The core this snapshot describes, rebuilt from `tasks`, its
    /// constructed list, or why the cursor does not fit that list. With
    /// `offload` the core waits on an offload, which must be task
    /// `taken - 1`; that task's fallback comes back with the core.
    fn resume(
        &self,
        tasks: &VecDeque<CoreTask>,
        offload: bool,
    ) -> Result<(CoreState, Vec<CoreTask>), String> {
        if self.taken > tasks.len() {
            return Err(format!(
                "taken {} is past its {} tasks",
                self.taken,
                tasks.len()
            ));
        }
        let last = self.taken.checked_sub(1).and_then(|i| tasks.get(i));
        let fallback = match last {
            Some(CoreTask::External { fallback, .. }) => Some(fallback.as_slice()),
            _ => None,
        };
        // The fallback tasks still queued, and the task popped last.
        let (rest, current) = match (self.fallback, fallback) {
            (None, _) => (&[][..], last),
            (Some(p), Some(f)) if p <= f.len() => {
                (&f[p..], p.checked_sub(1).and_then(|i| f.get(i)))
            }
            (Some(p), _) => {
                return Err(format!("fallback position {p} does not fit its last task"))
            }
        };
        let stream = match (self.stream, current) {
            (None, _) => None,
            (Some((ri, wi)), Some(CoreTask::Stream { ops, reads, writes }))
                if ri <= reads.len() && wi <= writes.len() =>
            {
                Some(StreamState {
                    ops: *ops,
                    reads: reads.clone(),
                    writes: writes.clone(),
                    ri,
                    wi,
                })
            }
            (Some((ri, wi)), _) => {
                return Err(format!(
                    "stream position [{ri}, {wi}] does not fit its last task"
                ))
            }
        };
        let waited = match (offload, self.fallback, fallback) {
            (false, ..) => Vec::new(),
            (true, None, Some(f)) => f.to_vec(),
            (true, ..) => return Err("waits on an offload that is not its last task".into()),
        };
        let core = CoreState {
            queue: rest
                .iter()
                .chain(tasks.range(self.taken..))
                .cloned()
                .collect(),
            taken: self.taken,
            fallback: (self.fallback.zip(fallback)).map(|(popped, f)| FallbackCursor {
                popped,
                len: f.len(),
            }),
            busy_until: self.busy_until,
            waiting: self.waiting,
            stream,
            barrier: self.barrier,
        };
        Ok((core, waited))
    }
}

impl CoreState {
    fn to_snapshot(&self) -> CoreSnapshot {
        CoreSnapshot {
            barrier: self.barrier,
            busy_until: self.busy_until,
            waiting: self.waiting,
            taken: self.taken,
            fallback: self.fallback.map(|f| f.popped),
            stream: self.stream.as_ref().map(|s| (s.ri, s.wi)),
        }
    }
}

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

/// The chiplets `task` itself sends to; an offload's fallback tasks name
/// their own.
fn named_chiplets(task: &CoreTask) -> &[usize] {
    match task {
        CoreTask::NetRequest { dst_chiplet, .. } => std::slice::from_ref(dst_chiplet),
        CoreTask::NetSend { dst_chiplets, .. } => dst_chiplets,
        CoreTask::Compute { .. }
        | CoreTask::Stream { .. }
        | CoreTask::Barrier { .. }
        | CoreTask::External { .. } => &[],
    }
}

/// The `[tag, value]` pairs, in tag order, of the pending entries that
/// `value` maps: the encoding of a `BTreeMap<u64, _>`.
fn pending_json(
    pending: &TagTable<Pending>,
    value: impl Fn(&Pending) -> Option<flumen_sim::Json>,
) -> flumen_sim::Json {
    use flumen_sim::{Json, ToJson};
    Json::Arr(
        pending
            .iter()
            .filter_map(|(tag, p)| Some(Json::Arr(vec![tag.to_json(), value(p)?])))
            .collect(),
    )
}

/// Builds the tag window from a snapshot's request and reply maps. A tag
/// may name a request or a reply but not both, and the tags may span at
/// most [`MAX_TAG_SPAN`].
fn pending_restore(
    requests: BTreeMap<u64, ReqInfo>,
    replies: BTreeMap<u64, usize>,
) -> Result<TagTable<Pending>, flumen_sim::JsonError> {
    use flumen_sim::JsonError;
    if let Some(&tag) = requests.keys().find(|t| replies.contains_key(t)) {
        return Err(JsonError(format!(
            "SystemSim: tag {tag} is pending as both a request and a reply"
        )));
    }
    let merged: BTreeMap<u64, Pending> = requests
        .into_iter()
        .map(|(tag, info)| (tag, Pending::Request(info)))
        .chain(
            replies
                .into_iter()
                .map(|(tag, core)| (tag, Pending::Reply(core))),
        )
        .collect();
    if let (Some((&first, _)), Some((&last, _))) =
        (merged.first_key_value(), merged.last_key_value())
    {
        if last - first > MAX_TAG_SPAN {
            return Err(JsonError(format!(
                "SystemSim: pending tags {first}..={last} span more than {MAX_TAG_SPAN}"
            )));
        }
    }
    let mut pending = TagTable::new();
    for (tag, p) in merged {
        pending.insert(tag, p);
    }
    Ok(pending)
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
// [`SystemSim::step`], except what a rebuild reproduces: configuration
// (`cfg`, `trace_interval`), the tracer and the task lists. Restore needs
// an identically configured instance that has not stepped, and moves its
// cores to the snapshot's cursors into their constructed lists.
impl<N, S> Snapshotable for SystemSim<N, S>
where
    N: Network + Snapshotable,
    S: ExternalServer<N> + Snapshotable,
{
    fn snapshot(&self) -> flumen_sim::Json {
        use flumen_sim::{Json, ToJson};
        let cores: Vec<CoreSnapshot> = self.cores.iter().map(CoreState::to_snapshot).collect();
        let waiting = self
            .external_waiting
            .iter()
            .map(|(&tag, &(core, _))| (tag, core).to_json());
        Json::obj([
            ("barrier_counts", self.barrier_counts.to_json()),
            ("cores", cores.to_json()),
            ("counts", self.counts.to_json()),
            ("cycle", self.cycle.to_json()),
            ("external_waiting", Json::Arr(waiting.collect())),
            ("l1d", caches_snapshot(&self.l1d)),
            ("l2", caches_snapshot(&self.l2)),
            ("l3", caches_snapshot(&self.l3)),
            ("last_trace_busy", self.last_trace_busy.to_json()),
            ("net", self.net.snapshot()),
            ("next_tag", self.next_tag.to_json()),
            (
                "pending_replies",
                pending_json(&self.pending, |p| match p {
                    Pending::Reply(core) => Some(core.to_json()),
                    Pending::Request(_) => None,
                }),
            ),
            (
                "pending_requests",
                pending_json(&self.pending, |p| match p {
                    Pending::Request(info) => Some(info.to_json()),
                    Pending::Reply(_) => None,
                }),
            ),
            ("server", self.server.snapshot()),
            ("server_jobs", self.server_jobs.to_json()),
            ("trace", self.trace.to_json()),
        ])
    }

    fn restore(&mut self, j: &flumen_sim::Json) -> Result<(), flumen_sim::JsonError> {
        use flumen_sim::{FromJson, JsonError};
        // The cursors index the constructed task lists, which only the
        // queues of an instance that has not stepped still hold whole.
        if self.cycle != 0 || self.cores.iter().any(|c| c.taken != 0) {
            return Err(JsonError(format!(
                "SystemSim: restore needs a freshly built instance, this one is at cycle {}",
                self.cycle
            )));
        }
        let (num_cores, chiplets) = (self.cfg.cores, self.cfg.chiplets);
        let cores: Vec<CoreSnapshot> = Vec::from_json(j.get("cores")?)?;
        // A core count other than the configured one would index past the
        // per-core caches (more cores) or never release a barrier (fewer).
        if cores.len() != num_cores {
            return Err(JsonError(format!(
                "SystemSim.cores: snapshot has {} cores, instance has {num_cores}",
                cores.len(),
            )));
        }
        let external_waiting: BTreeMap<u64, usize> =
            BTreeMap::from_json(j.get("external_waiting")?)?;
        let pending_replies: BTreeMap<u64, usize> = BTreeMap::from_json(j.get("pending_replies")?)?;
        let pending_requests: BTreeMap<u64, ReqInfo> =
            BTreeMap::from_json(j.get("pending_requests")?)?;
        let server_jobs: EventQueue<Packet> = EventQueue::from_json(j.get("server_jobs")?)?;
        // Every core and chiplet the in-flight state names must exist: a
        // later step indexes `cores[core]` and the network's per-node
        // queues with them. A writeback's `requester_core` is the
        // `usize::MAX` sentinel and is never indexed. The tasks' own
        // chiplets were checked when the instance was built.
        let requesters = pending_requests
            .values()
            .filter(|r| !matches!(r.kind, ReqKind::Writeback { .. }))
            .map(|r| r.requester_core);
        let bad_core = external_waiting
            .values()
            .chain(pending_replies.values())
            .copied()
            .chain(requesters)
            .find(|&c| c >= num_cores);
        if let Some(core) = bad_core {
            return Err(JsonError(format!(
                "SystemSim: snapshot names core {core}, instance has {num_cores}"
            )));
        }
        let reply_nodes = server_jobs.iter_sorted().flat_map(|(_, p)| {
            [p.src, p.dst]
                .into_iter()
                .chain(p.extra_dests.iter().copied())
        });
        let bad_chiplet = pending_requests
            .values()
            .map(|r| r.src_chiplet)
            .chain(reply_nodes)
            .find(|&c| c >= chiplets);
        if let Some(chiplet) = bad_chiplet {
            return Err(JsonError(format!(
                "SystemSim: snapshot names chiplet {chiplet}, instance has {chiplets}"
            )));
        }
        let next_tag = u64::from_json(j.get("next_tag")?)?;
        // `fresh_tag` would hand out such a tag again while it is live, and
        // the new entry would overwrite the live one.
        let reply_tags = server_jobs.iter_sorted().map(|(_, p)| p.tag);
        if let Some(tag) = pending_requests
            .keys()
            .chain(pending_replies.keys())
            .chain(external_waiting.keys())
            .copied()
            .chain(reply_tags)
            .find(|&t| t >= next_tag)
        {
            return Err(JsonError(format!(
                "SystemSim: pending tag {tag} is not below next_tag {next_tag}"
            )));
        }
        // A core waits on at most one offload, and each cursor must fit
        // the core's constructed list.
        let mut offload = vec![false; num_cores];
        for &core in external_waiting.values() {
            if std::mem::replace(&mut offload[core], true) {
                return Err(JsonError(format!(
                    "SystemSim: core {core} waits on two offloads"
                )));
            }
        }
        let resumed: Vec<(CoreState, Vec<CoreTask>)> = (cores.iter().zip(&self.cores))
            .zip(offload)
            .enumerate()
            .map(|(i, ((saved, core), offload))| {
                (saved.resume(&core.queue, offload))
                    .map_err(|e| JsonError(format!("SystemSim.cores[{i}]: {e}")))
            })
            .collect::<Result<_, _>>()?;
        let pending = pending_restore(pending_requests, pending_replies)?;
        // A core's `waiting` counts its live requests, replies and
        // offloads; each delivery or outcome takes one off. A count that
        // nothing names would never fall to 0, and the resumed run would
        // idle to its cycle cap.
        let mut live = vec![0usize; num_cores];
        let named = pending.iter().filter_map(|(_, p)| match p {
            Pending::Request(ReqInfo {
                kind: ReqKind::Writeback { .. },
                ..
            }) => None,
            Pending::Request(info) => Some(info.requester_core),
            Pending::Reply(core) => Some(*core),
        });
        for core in named.chain(external_waiting.values().copied()) {
            live[core] += 1;
        }
        if let Some((i, (saved, n))) = (cores.iter().zip(&live))
            .enumerate()
            .find(|(_, (saved, &n))| saved.waiting != n)
        {
            return Err(JsonError(format!(
                "SystemSim.cores[{i}]: waits on {} requests and offloads, {n} are live",
                saved.waiting
            )));
        }
        let barrier_counts = BTreeMap::from_json(j.get("barrier_counts")?)?;
        let counts = ActivityCounts::from_json(j.get("counts")?)?;
        let cycle = u64::from_json(j.get("cycle")?)?;
        let last_trace_busy = u64::from_json(j.get("last_trace_busy")?)?;
        let trace = Vec::from_json(j.get("trace")?)?;
        // Sub-components restore in place, and only once every engine
        // field has parsed and passed its checks. Each checks its own
        // state, but a later one's `Err` can leave an earlier one
        // restored; callers drop the instance on `Err`.
        caches_restore(&mut self.l1d, j.get("l1d")?, "SystemSim.l1d")?;
        caches_restore(&mut self.l2, j.get("l2")?, "SystemSim.l2")?;
        caches_restore(&mut self.l3, j.get("l3")?, "SystemSim.l3")?;
        self.net.restore(j.get("net")?)?;
        self.server.restore(j.get("server")?)?;
        let (cores, mut waited): (Vec<_>, Vec<_>) = resumed.into_iter().unzip();
        self.cores = cores;
        self.external_waiting = external_waiting
            .into_iter()
            .map(|(tag, core)| (tag, (core, std::mem::take(&mut waited[core]))))
            .collect();
        self.barrier_counts = barrier_counts;
        self.wake.fill(0);
        self.counts = counts;
        self.cycle = cycle;
        self.last_trace_busy = last_trace_busy;
        self.next_tag = next_tag;
        self.pending = pending;
        self.server_jobs = server_jobs;
        self.trace = trace;
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
    #[should_panic(expected = "a task names chiplet 4, system has 4")]
    fn new_rejects_tasks_naming_missing_chiplets() {
        let mut tasks = empty_tasks(4);
        tasks[2].push(CoreTask::External {
            payload: [0; 4],
            fallback: vec![CoreTask::NetRequest {
                dst_chiplet: 4,
                req_bits: 64,
                reply_bits: 512,
                server_cycles: 10,
            }],
        });
        SystemSim::new(tiny_cfg(), net4(), NullServer::default(), tasks);
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
            payload: [0; 4],
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
            payload: [0; 4],
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

    /// A [`NullServer`] that logs the cycles it is stepped through and
    /// the cycles it is advanced over.
    #[derive(Debug, Default)]
    struct StepLog {
        inner: NullServer,
        stepped: Vec<u64>,
        jumped: u64,
    }

    impl<N: Network> ExternalServer<N> for StepLog {
        fn on_request(
            &mut self,
            now: u64,
            core: usize,
            chiplet: usize,
            tag: u64,
            p: ExternalPayload,
        ) {
            ExternalServer::<N>::on_request(&mut self.inner, now, core, chiplet, tag, p);
        }
        fn step(&mut self, now: u64, net: &mut N) -> Vec<ExternalOutcome> {
            self.stepped.push(now);
            self.inner.step(now, net)
        }
        fn outstanding(&self) -> usize {
            ExternalServer::<N>::outstanding(&self.inner)
        }
        fn drain_counts(&mut self, _counts: &mut ActivityCounts) {}
        fn quiet_until(&self) -> Option<u64> {
            ExternalServer::<N>::quiet_until(&self.inner)
        }
        fn advance_quiet(&mut self, cycles: u64) {
            self.jumped += cycles;
        }
    }

    /// `run_to` steps only the cycles on which a core wakes, jumps the
    /// quiet spans between them without passing its cap, resumes from
    /// the cycle it stopped on, and stops once the system finishes.
    #[test]
    fn run_to_steps_busy_cycles_and_jumps_quiet_ones() {
        let mut tasks = empty_tasks(4);
        // 1000 ops at IPC 2 busy core 0 over cycles 0..500, then 200 ops
        // over 500..600.
        tasks[0].push(CoreTask::Compute { ops: 1000 });
        tasks[0].push(CoreTask::Compute { ops: 200 });
        let mut sim = SystemSim::new(tiny_cfg(), net4(), StepLog::default(), tasks);

        sim.run_to(550);
        assert_eq!(sim.cycle(), 550, "the jump from 501 stops at the cap");
        assert!(!sim.finished());
        assert_eq!(sim.server.stepped, [0, 500]);
        assert_eq!(sim.server.jumped, 499 + 49);

        sim.run_to(10_000);
        assert_eq!(sim.cycle(), 600, "stops on finishing, not at the cap");
        assert!(sim.finished());
        assert_eq!(sim.server.stepped, [0, 500], "no quiet cycle stepped");
        assert_eq!(sim.server.jumped, 499 + 99);
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

    /// A core whose `waiting` count exceeds its live requests, replies and
    /// offloads restores as an `Err` and leaves the engine untouched.
    /// Restored, nothing would ever take the extra wait off: the run would
    /// idle to its cap and report `truncated`.
    #[test]
    fn restore_rejects_a_waiting_count_nothing_will_decrement() {
        use flumen_sim::Json;
        let mut a = SystemSim::new(tiny_cfg(), net4(), NullServer::default(), mid_run_tasks());
        for _ in 0..150 {
            a.step();
        }
        assert!(!a.finished(), "checkpoint must land mid-run");
        let mut snap = a.snapshot();
        let Json::Obj(m) = &mut snap else {
            panic!("snapshot is an object")
        };
        let Some(Json::Arr(cores)) = m.get_mut("cores") else {
            panic!("cores: not an array")
        };
        let Json::Obj(core) = &mut cores[3] else {
            panic!("cores[3]: not an object")
        };
        let waiting = core.get_mut("waiting").expect("waiting in core snapshot");
        let Json::Num(n) = waiting else {
            panic!("waiting: not a number")
        };
        *waiting = Json::Num(*n + 1.0);

        let mut b = SystemSim::new(tiny_cfg(), net4(), NullServer::default(), mid_run_tasks());
        let err = b.restore(&snap).expect_err("an extra wait restores as Err");
        assert!(err.0.contains("cores[3]"), "{err}");
        assert_eq!(b.cycle, 0, "a failed restore changed the engine");
    }

    /// In-flight state that names a core or chiplet the instance does not
    /// have restores as an `Err` and leaves the engine untouched, instead
    /// of restoring a state whose next step indexes past `cores` or the
    /// network's per-node queues. A writeback's `usize::MAX` requester is
    /// a sentinel and still restores.
    #[test]
    fn restore_rejects_out_of_range_cores_and_chiplets() {
        use flumen_sim::{Json, ToJson};
        let mut a = SystemSim::new(tiny_cfg(), net4(), NullServer::default(), mid_run_tasks());
        for _ in 0..150 {
            a.step();
        }
        assert!(!a.finished(), "checkpoint must land mid-run");
        let snap = a.snapshot();
        let with_entry = |path: &[&str], entry: Json| {
            let mut j = snap.clone();
            let mut node = &mut j;
            for key in path {
                let Json::Obj(m) = node else {
                    panic!("{key}: not an object")
                };
                node = m.get_mut(*key).expect("field in snapshot");
            }
            let Json::Arr(entries) = node else {
                panic!("{path:?}: not an array")
            };
            entries.push(entry);
            j
        };
        let tag = Json::Num(1e6);
        let request = |kind: ReqKind, requester_core: usize, src_chiplet: usize| {
            let info = ReqInfo {
                kind,
                requester_core,
                src_chiplet,
            };
            Json::Arr(vec![tag.clone(), info.to_json()])
        };
        let line = ReqKind::RemoteLine {
            addr: 64,
            write: false,
        };
        let reply = |src: usize, dst: usize| {
            let pkt = Packet::new(1_000_000, src, dst, 512, 0);
            Json::Arr(vec![Json::Num(1e6), Json::Num(1e6), pkt.to_json()])
        };
        let tampered = [
            (
                "reply core",
                with_entry(
                    &["pending_replies"],
                    Json::Arr(vec![tag.clone(), Json::Num(4.0)]),
                ),
            ),
            (
                "offload core",
                with_entry(
                    &["external_waiting"],
                    Json::Arr(vec![tag.clone(), Json::Num(4.0)]),
                ),
            ),
            (
                "requester core",
                with_entry(&["pending_requests"], request(line, 4, 0)),
            ),
            (
                "requester chiplet",
                with_entry(&["pending_requests"], request(line, 0, 4)),
            ),
            (
                "reply destination",
                with_entry(&["server_jobs", "entries"], reply(0, 4)),
            ),
            (
                "reply source",
                with_entry(&["server_jobs", "entries"], reply(4, 0)),
            ),
        ];
        for (what, bad) in tampered {
            let mut b = SystemSim::new(tiny_cfg(), net4(), NullServer::default(), mid_run_tasks());
            let err = b.restore(&bad).expect_err(what);
            assert!(err.0.contains("names"), "{what}: {err}");
            assert_eq!(b.cycle, 0, "{what}: a failed restore changed the engine");
        }
        // The sentinel sits at a tag below `next_tag` that nothing holds.
        let free = (0..a.next_tag)
            .find(|&t| a.pending.get(t).is_none() && !a.external_waiting.contains_key(&t))
            .expect("a free tag below next_tag");
        let info = ReqInfo {
            kind: ReqKind::Writeback { addr: 64 },
            requester_core: usize::MAX,
            src_chiplet: 0,
        };
        let writeback = Json::Arr(vec![free.to_json(), info.to_json()]);
        let mut b = SystemSim::new(tiny_cfg(), net4(), NullServer::default(), mid_run_tasks());
        b.restore(&with_entry(&["pending_requests"], writeback))
            .expect("writeback sentinel restores");
        assert_eq!(b.cycle, a.cycle);
    }

    /// A snapshot whose pending tags `fresh_tag` would hand out again, that
    /// holds one tag as both a request and a reply, or whose pending tags
    /// span more than [`MAX_TAG_SPAN`], restores as an `Err`. Restored,
    /// the first would overwrite a live entry with a reused tag and
    /// leave a core waiting forever.
    #[test]
    fn restore_rejects_tags_at_or_past_next_tag() {
        use flumen_sim::{FromJson, Json, ToJson};
        let mut a = SystemSim::new(tiny_cfg(), net4(), NullServer::default(), mid_run_tasks());
        for _ in 0..150 {
            a.step();
        }
        assert!(!a.finished(), "checkpoint must land mid-run");
        let snap = a.snapshot();
        let (oldest, _) = a.pending.iter().next().expect("a pending tag");
        let edited = |edit: &dyn Fn(&mut BTreeMap<String, Json>)| {
            let mut j = snap.clone();
            let Json::Obj(m) = &mut j else {
                panic!("snapshot is an object")
            };
            edit(m);
            j
        };
        let push = |m: &mut BTreeMap<String, Json>, path: &[&str], entry: Json| {
            let mut node = m.get_mut(path[0]).expect("field in snapshot");
            for key in &path[1..] {
                let Json::Obj(o) = node else {
                    panic!("{key}: not an object")
                };
                node = o.get_mut(*key).expect("field in snapshot");
            }
            let Json::Arr(entries) = node else {
                panic!("{path:?}: not an array")
            };
            entries.push(entry);
        };
        let next = a.next_tag;
        // A writeback, so the entry adds no wait to any core.
        let request = |tag: u64| {
            let info = ReqInfo {
                kind: ReqKind::Writeback { addr: 64 },
                requester_core: usize::MAX,
                src_chiplet: 0,
            };
            Json::Arr(vec![tag.to_json(), info.to_json()])
        };
        let far = MAX_TAG_SPAN + oldest + 1;
        let tampered = [
            (
                "next_tag rewound to the oldest pending tag",
                "next_tag",
                edited(&|m| {
                    m.insert("next_tag".into(), oldest.to_json());
                }),
            ),
            (
                "request at next_tag",
                "next_tag",
                edited(&|m| push(m, &["pending_requests"], request(next))),
            ),
            (
                "reply at next_tag",
                "next_tag",
                edited(&|m| {
                    push(
                        m,
                        &["pending_replies"],
                        Json::Arr(vec![next.to_json(), 0usize.to_json()]),
                    )
                }),
            ),
            (
                "offload at next_tag",
                "next_tag",
                edited(&|m| {
                    push(
                        m,
                        &["external_waiting"],
                        Json::Arr(vec![next.to_json(), 0usize.to_json()]),
                    );
                }),
            ),
            (
                "server reply at next_tag",
                "next_tag",
                edited(&|m| {
                    let mut pkt = Packet::new(next, 1, 0, 512, 0);
                    pkt.tag = next;
                    let entry = Json::Arr(vec![Json::Num(1e6), Json::Num(1e6), pkt.to_json()]);
                    push(m, &["server_jobs", "entries"], entry);
                }),
            ),
            (
                "one tag as request and reply",
                "both",
                edited(&|m| {
                    let replies = BTreeMap::<u64, usize>::from_json(&m["pending_replies"]).unwrap();
                    let (&tag, _) = replies.iter().next().expect("a pending reply");
                    push(m, &["pending_requests"], request(tag));
                }),
            ),
            (
                "tags spanning past the bound",
                "span",
                edited(&|m| {
                    m.insert("next_tag".into(), (far + 1).to_json());
                    push(m, &["pending_requests"], request(far));
                }),
            ),
        ];
        for (what, want, bad) in tampered {
            let mut b = SystemSim::new(tiny_cfg(), net4(), NullServer::default(), mid_run_tasks());
            let err = b.restore(&bad).expect_err(what);
            assert!(err.0.contains(want), "{what}: {err}");
            assert_eq!(b.cycle, 0, "{what}: a failed restore changed the engine");
        }
        // At the bound itself the window restores.
        let at_bound = edited(&|m| {
            m.insert("next_tag".into(), far.to_json());
            push(m, &["pending_requests"], request(far - 1));
        });
        let mut b = SystemSim::new(tiny_cfg(), net4(), NullServer::default(), mid_run_tasks());
        b.restore(&at_bound)
            .expect("a span of exactly MAX_TAG_SPAN restores");
    }

    /// Each core streams remote lines, offloads with a fallback that
    /// streams and multicasts, computes, offloads with a compute fallback
    /// and streams again. A [`NullServer`] rejects both offloads.
    fn offload_tasks() -> Vec<Vec<CoreTask>> {
        (0..4u64)
            .map(|c| {
                // Lines homed on the next chiplet, a region per stream.
                let remote = |region: u64, n: u64| -> Vec<u64> {
                    (0..n)
                        .map(|i| (region << 20) + 64 * ((c + 1) % 4) + i * 256)
                        .collect()
                };
                let next = c as usize + 1;
                vec![
                    CoreTask::Stream {
                        ops: 10,
                        reads: remote(1, 8),
                        writes: remote(2, 4),
                    },
                    CoreTask::External {
                        payload: [c; 4],
                        fallback: vec![
                            CoreTask::stream_reads(30, remote(3, 8)),
                            CoreTask::NetSend {
                                dst_chiplets: vec![next % 4, (next + 1) % 4],
                                bits: 256,
                            },
                        ],
                    },
                    CoreTask::Compute { ops: 40 },
                    CoreTask::External {
                        payload: [c; 4],
                        fallback: vec![CoreTask::Compute { ops: 20 }],
                    },
                    CoreTask::stream_reads(10, remote(4, 6)),
                ]
            })
            .collect()
    }

    #[test]
    #[should_panic(expected = "an offload's fallback holds another offload")]
    fn new_rejects_offloads_nested_in_fallbacks() {
        let mut tasks = empty_tasks(4);
        tasks[1].push(CoreTask::External {
            payload: [0; 4],
            fallback: vec![CoreTask::External {
                payload: [0; 4],
                fallback: Vec::new(),
            }],
        });
        SystemSim::new(tiny_cfg(), net4(), NullServer::default(), tasks);
    }

    /// A [`NullServer`] that answers only on even cycles, so an offload
    /// issued on an odd cycle still waits when that cycle ends. (A plain
    /// `NullServer` rejects within the step that issued the offload.)
    #[derive(Debug, Default)]
    struct EvenCycleNull(NullServer);

    impl<N: Network> ExternalServer<N> for EvenCycleNull {
        fn on_request(
            &mut self,
            now: u64,
            core: usize,
            chiplet: usize,
            tag: u64,
            p: ExternalPayload,
        ) {
            ExternalServer::<N>::on_request(&mut self.0, now, core, chiplet, tag, p);
        }
        fn step(&mut self, now: u64, net: &mut N) -> Vec<ExternalOutcome> {
            if now.is_multiple_of(2) {
                self.0.step(now, net)
            } else {
                Vec::new()
            }
        }
        fn outstanding(&self) -> usize {
            ExternalServer::<N>::outstanding(&self.0)
        }
        fn drain_counts(&mut self, _counts: &mut ActivityCounts) {}
    }

    impl Snapshotable for EvenCycleNull {
        fn snapshot(&self) -> flumen_sim::Json {
            self.0.snapshot()
        }
        fn restore(&mut self, j: &flumen_sim::Json) -> Result<(), flumen_sim::JsonError> {
            self.0.restore(j)
        }
    }

    /// Snapshots `offload_tasks` at every cycle of its run, restores each
    /// snapshot into a fresh instance, checks that the restored instance
    /// snapshots the same, and that it finishes with the uninterrupted
    /// run's final state and result. Returns which of four core states
    /// the snapshots met: inside a fallback, waiting on an offload, a
    /// fallback stream mid-way and a main-list stream mid-way.
    fn resume_from_every_cycle<S>(server: impl Fn() -> S) -> [bool; 4]
    where
        S: ExternalServer<MzimCrossbar> + Snapshotable,
    {
        let build = || {
            let mut sim = SystemSim::new(tiny_cfg(), net4(), server(), offload_tasks());
            sim.set_trace_interval(50);
            sim
        };
        // `RunResult`'s `Debug` text prints every f64 in its shortest
        // round-trip form, so equal text means equal bits.
        let finish = |mut sim: SystemSim<MzimCrossbar, S>| {
            sim.run_to(1_000_000);
            let state = sim.snapshot().to_canonical();
            format!("{state}\n{:?}", sim.run(1_000_000))
        };
        let reference = finish(build());
        let mut seen = [false; 4];
        let mut a = build();
        while !a.finished() {
            for core in &a.cores {
                seen[0] |= core.fallback.is_some();
                seen[2] |= core.fallback.is_some() && core.stream.is_some();
                seen[3] |= core.fallback.is_none() && core.stream.is_some();
            }
            seen[1] |= !a.external_waiting.is_empty();
            let snap = a.snapshot();
            let mut b = build();
            b.restore(&snap)
                .unwrap_or_else(|e| panic!("cycle {}: {e}", a.cycle));
            assert!(b.snapshot() == snap, "round trip at cycle {}", a.cycle);
            assert_eq!(finish(b), reference, "resumed from cycle {}", a.cycle);
            a.step();
        }
        seen
    }

    #[test]
    fn resume_from_every_cycle_through_offload_rejects_is_bit_identical() {
        let [fallback, waiting, fallback_stream, main_stream] =
            resume_from_every_cycle(NullServer::default);
        assert!(fallback && fallback_stream && main_stream);
        assert!(!waiting, "a plain NullServer rejects within the step");
        let seen = resume_from_every_cycle(EvenCycleNull::default);
        assert_eq!(seen, [true; 4], "inside a fallback, waiting, two streams");
    }

    /// Cursors that do not fit the fresh instance's task lists, and
    /// restores into an instance that has stepped, return `Err` and leave
    /// the engine untouched. Cursors at the ends of their lists restore.
    #[test]
    fn restore_rejects_cursors_that_do_not_fit_the_task_lists() {
        use flumen_sim::{Json, ToJson};
        let build = || SystemSim::new(tiny_cfg(), net4(), NullServer::default(), offload_tasks());
        let mut a = build();
        a.run_to(300);
        assert!(!a.finished() && a.external_waiting.is_empty());
        let snap = a.snapshot();
        let free: Vec<u64> = (0..a.next_tag)
            .filter(|&t| a.pending.get(t).is_none())
            .take(2)
            .collect();
        assert_eq!(free.len(), 2, "two free tags below next_tag");
        // Core 0 at a cursor, waiting on its live requests and on
        // offloads tagged `waits`.
        let at = |taken: usize,
                  fallback: Option<usize>,
                  stream: Option<(usize, usize)>,
                  waits: &[u64]| {
            let core = CoreSnapshot {
                barrier: None,
                busy_until: 0,
                waiting: a.cores[0].waiting + waits.len(),
                taken,
                fallback,
                stream,
            };
            let mut j = snap.clone();
            let Json::Obj(m) = &mut j else {
                panic!("snapshot is an object")
            };
            if let Some(Json::Arr(cores)) = m.get_mut("cores") {
                cores[0] = core.to_json();
            }
            let waits = waits.iter().map(|&t| (t, 0usize).to_json()).collect();
            m.insert("external_waiting".into(), Json::Arr(waits));
            j
        };
        // Core 0's list: stream (8 reads, 4 writes), offload (fallback:
        // stream of 8 reads, multicast), compute, offload, stream.
        let tampered = [
            ("taken past the list", at(6, None, None, &[])),
            ("fallback before any task", at(0, Some(0), None, &[])),
            ("fallback on a stream", at(1, Some(0), None, &[])),
            ("fallback past the offload's", at(2, Some(3), None, &[])),
            ("stream on a compute", at(3, None, Some((0, 0)), &[])),
            ("stream on the offload", at(2, Some(0), Some((0, 0)), &[])),
            ("stream on a multicast", at(2, Some(2), Some((0, 0)), &[])),
            ("reads past the stream", at(1, None, Some((9, 0)), &[])),
            ("writes past the stream", at(1, None, Some((8, 5)), &[])),
            (
                "reads past the fallback stream",
                at(2, Some(1), Some((9, 0)), &[]),
            ),
            ("waiting on a stream", at(1, None, None, &free[..1])),
            (
                "waiting inside a fallback",
                at(2, Some(0), None, &free[..1]),
            ),
            ("waiting twice", at(2, None, None, &free)),
        ];
        for (what, bad) in tampered {
            let mut b = build();
            let err = b.restore(&bad).expect_err(what);
            assert!(
                err.0.contains("cores[0]") || err.0.contains("two offloads"),
                "{what}: {err}"
            );
            assert_eq!(b.cycle, 0, "{what}: a failed restore changed the engine");
        }
        let mut stepped = build();
        stepped.step();
        let err = stepped.restore(&snap).expect_err("stepped instance");
        assert!(err.0.contains("freshly built"), "{err}");
        assert_eq!(stepped.cycle, 1);

        // At the ends of their lists the cursors restore, and the queue
        // is the rest of the fallback followed by the rest of the list.
        let fits = [
            at(5, None, None, &[]),
            at(1, None, Some((8, 4)), &[]),
            at(2, None, None, &free[..1]),
            at(2, Some(1), Some((8, 0)), &[]),
        ];
        let restored: Vec<_> = (fits.iter().enumerate())
            .map(|(i, ok)| {
                let mut b = build();
                b.restore(ok).unwrap_or_else(|e| panic!("fit {i}: {e}"));
                assert_eq!(b.cycle, a.cycle, "fit {i}");
                b
            })
            .collect();
        let (&tag, (core, fallback)) = restored[2].external_waiting.iter().next().unwrap();
        assert_eq!((tag, *core, fallback.len()), (free[0], 0, 2));
        let core = &restored[3].cores[0];
        assert_eq!(core.queue.len(), 4, "multicast, compute, offload, stream");
        assert!(matches!(core.queue[0], CoreTask::NetSend { .. }));
        let stream = core.stream.as_ref().expect("fallback stream restored");
        assert_eq!((stream.reads.len(), stream.ri, stream.ops), (8, 8, 30));
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
