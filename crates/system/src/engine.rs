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
use flumen_sim::{Cycles, EventQueue};
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
#[derive(Debug, Default, PartialEq)]
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

#[derive(Debug, PartialEq)]
struct StreamState {
    ops: u64,
    reads: Vec<u64>,
    writes: Vec<u64>,
    ri: usize,
    wi: usize,
}

/// Where a core stands in the fallback that a rejected offload pushed to
/// the front of its queue.
#[derive(Debug, Clone, Copy, PartialEq)]
struct FallbackCursor {
    /// Fallback tasks popped so far.
    popped: usize,
    /// The fallback's length.
    len: usize,
}

#[derive(Debug, PartialEq)]
struct CoreState {
    queue: VecDeque<CoreTask>,
    /// Tasks popped from the core's constructed list.
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

#[derive(Debug, Clone, Copy, PartialEq)]
enum ReqKind {
    RemoteLine { addr: u64, write: bool },
    Custom { server_cycles: u64, reply_bits: u32 },
    Writeback { addr: u64 },
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct ReqInfo {
    kind: ReqKind,
    requester_core: usize,
    src_chiplet: usize,
}

/// What a live packet tag is waiting for: its request's delivery, or the
/// delivery of the reply that reuses the request's tag (to `usize`, the
/// requesting core).
#[derive(Debug, Clone, Copy, PartialEq)]
enum Pending {
    Request(ReqInfo),
    Reply(usize),
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
    /// Per core, the first cycle at which stepping it can do anything
    /// (`CoreState::wake`, set after each step of the core). A reply, an
    /// offload outcome or a barrier release resets it to 0. Derived from
    /// the cores.
    wake: Vec<u64>,
    net: N,
    server: S,
    counts: ActivityCounts,
    cycle: u64,
    next_tag: u64,
    /// Requests and replies in the network or in home-node service, by
    /// tag.
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
    /// result. Call once per constructed system (possibly after
    /// [`SystemSim::run_to`], in which case the run goes on from there).
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
    /// capped at `stop`; the system can be inspected there and run on.
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

// State equality, for the quiet-span tests: every field but the tracer.
// `wake` is derived from the cores and compared too. The utilization
// trace compares bit for bit.
impl<N, S> PartialEq for SystemSim<N, S>
where
    N: Network + PartialEq,
    S: ExternalServer<N> + PartialEq,
{
    fn eq(&self, other: &Self) -> bool {
        let SystemSim {
            cfg,
            cores,
            l1d,
            l2,
            l3,
            wake,
            net,
            server,
            counts,
            cycle,
            next_tag,
            pending,
            external_waiting,
            server_jobs,
            barrier_counts,
            trace_interval,
            trace,
            last_trace_busy,
            tracer: _, // an output sink, not state
        } = self;
        *cycle == other.cycle
            && *next_tag == other.next_tag
            && *last_trace_busy == other.last_trace_busy
            && *trace_interval == other.trace_interval
            && *wake == other.wake
            && *counts == other.counts
            && *barrier_counts == other.barrier_counts
            && *pending == other.pending
            && *server_jobs == other.server_jobs
            && *external_waiting == other.external_waiting
            && trace
                .iter()
                .map(|v| v.to_bits())
                .eq(other.trace.iter().map(|v| v.to_bits()))
            && *cores == other.cores
            && *server == other.server
            && *net == other.net
            && *l1d == other.l1d
            && *l2 == other.l2
            && *l3 == other.l3
            && *cfg == other.cfg
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

    /// The quiet-span tests' oracle is not vacuous: two fresh systems are
    /// equal, and a change to any one field, a single cache access
    /// included, makes them unequal.
    #[test]
    fn equality_sees_a_change_to_any_field() {
        type Sim = SystemSim<MzimCrossbar, NullServer>;
        let fresh = || -> Sim {
            let mut tasks = empty_tasks(4);
            tasks[0].push(CoreTask::Compute { ops: 10 });
            SystemSim::new(tiny_cfg(), net4(), NullServer::default(), tasks)
        };
        assert!(fresh() == fresh());
        let changes: [(_, fn(&mut Sim)); 18] = [
            ("cfg", |s| s.cfg.dram_latency += 1),
            ("cores", |s| s.cores[0].busy_until = 7),
            ("l1d", |s| {
                s.l1d[0].access(64, false);
            }),
            ("l2", |s| {
                s.l2[1].access(64, false);
            }),
            ("l3", |s| {
                s.l3[2].access(64, false);
            }),
            ("wake", |s| s.wake[0] = 9),
            ("net", |s| s.net.inject(Packet::new(1, 0, 1, 512, 0))),
            ("server", |s| {
                ExternalServer::<MzimCrossbar>::on_request(&mut s.server, 0, 0, 0, 5, [0; 4])
            }),
            ("counts", |s| s.counts.core_ops = 1),
            ("cycle", |s| s.cycle = 1),
            ("next_tag", |s| s.next_tag = 2),
            ("pending", |s| s.pending.insert(1, Pending::Reply(0))),
            ("external_waiting", |s| {
                s.external_waiting.insert(1, (0, Vec::new()));
            }),
            ("server_jobs", |s| {
                s.server_jobs
                    .schedule(Cycles::new(3), Packet::new(1, 0, 1, 64, 0))
            }),
            ("barrier_counts", |s| {
                s.barrier_counts.insert(0, 1);
            }),
            ("trace_interval", |s| s.trace_interval = 97),
            ("trace", |s| s.trace.push(0.0)),
            ("last_trace_busy", |s| s.last_trace_busy = 1),
        ];
        for (field, change) in changes {
            let mut sim = fresh();
            change(&mut sim);
            assert!(sim != fresh(), "a change to `{field}` went unseen");
        }
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

    /// Steps `offload_tasks` to the end and returns which of four core
    /// states a cycle boundary met: inside a fallback, waiting on an
    /// offload, a fallback stream mid-way and a main-list stream mid-way.
    fn core_states_met<S: ExternalServer<MzimCrossbar>>(server: S) -> [bool; 4] {
        let mut sim = SystemSim::new(tiny_cfg(), net4(), server, offload_tasks());
        let mut seen = [false; 4];
        while !sim.finished() {
            for core in &sim.cores {
                seen[0] |= core.fallback.is_some();
                seen[2] |= core.fallback.is_some() && core.stream.is_some();
                seen[3] |= core.fallback.is_none() && core.stream.is_some();
            }
            seen[1] |= !sim.external_waiting.is_empty();
            sim.step();
            assert!(sim.cycle < 1_000_000, "runaway");
        }
        seen
    }

    #[test]
    fn rejected_offloads_run_their_fallbacks() {
        let [fallback, waiting, fallback_stream, main_stream] =
            core_states_met(NullServer::default());
        assert!(fallback && fallback_stream && main_stream);
        assert!(!waiting, "a plain NullServer rejects within the step");
        let seen = core_states_met(EvenCycleNull::default());
        assert_eq!(seen, [true; 4], "inside a fallback, waiting, two streams");
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
