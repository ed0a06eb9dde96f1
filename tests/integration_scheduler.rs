//! Integration: Algorithm 1 scheduling ↔ the crossbar network ↔ the
//! system engine.

use flumen::scheduler::SchedulerParams;
use flumen::{ControlUnitParams, MzimControlUnit};
use flumen_noc::{CrossbarConfig, MzimCrossbar, Network, Packet};
use flumen_system::{ActivityCounts, CoreTask, ExternalServer, SystemConfig, SystemSim};

fn sys16() -> SystemConfig {
    SystemConfig::paper()
}

fn crossbar() -> MzimCrossbar {
    MzimCrossbar::new(16, CrossbarConfig::default()).unwrap()
}

#[test]
fn offload_through_engine_completes_and_counts() {
    let mut tasks: Vec<Vec<CoreTask>> = vec![Vec::new(); 64];
    // Four cores offload small kernels.
    for c in [0usize, 17, 35, 60] {
        tasks[c].push(CoreTask::External {
            payload: [8, 64, 4, 2048],
            fallback: vec![CoreTask::Compute { ops: 12_288 }],
        });
    }
    let sim = SystemSim::new(
        sys16(),
        crossbar(),
        MzimControlUnit::new(ControlUnitParams::paper()),
        tasks,
    );
    let r = sim.run(1_000_000);
    assert_eq!(r.counts.offload_requests, 4);
    // All admitted (idle network): reconfigs = 4 requests × 8 configs.
    assert_eq!(r.counts.mzim_reconfigs, 32);
    assert_eq!(r.counts.mzim_mvms, 4 * 8 * 64);
    assert_eq!(r.counts.core_ops, 0, "no fallback should have run");
    assert!(r.counts.mzim_active_cycles > 0);
}

#[test]
fn rejected_offloads_run_their_fallback() {
    // η = -1: the scheduler can never admit; max_wait forces rejection.
    let control = ControlUnitParams {
        scheduler: SchedulerParams {
            eta: -1.0,
            max_wait: 200,
            ..SchedulerParams::paper()
        },
        ..ControlUnitParams::paper()
    };
    let mut tasks: Vec<Vec<CoreTask>> = vec![Vec::new(); 64];
    tasks[3].push(CoreTask::External {
        payload: [4, 16, 4, 256],
        fallback: vec![CoreTask::Compute { ops: 1_536 }],
    });
    let sim = SystemSim::new(sys16(), crossbar(), MzimControlUnit::new(control), tasks);
    let r = sim.run(1_000_000);
    assert_eq!(r.counts.core_ops, 1_536, "fallback must execute locally");
    assert_eq!(r.counts.mzim_mvms, 0);
}

#[test]
fn compute_partition_blocks_and_releases_traffic() {
    // One long-running offload; packets between reserved endpoints must be
    // delayed until the partition tears down, then flow.
    let control = ControlUnitParams::paper();
    let mut cu = MzimControlUnit::new(control);
    let mut net = crossbar();
    // Requester on chiplet 15 → bottom half (ports 8..16) reserved.
    cu.on_request(0, 60, 15, 1, [2000, 8, 4, 0]);
    let _ = cu.step(0, &mut net);
    assert_eq!(net.reserved_wires().len(), 8);

    net.inject(Packet::new(900, 9, 10, 512, 0)); // both reserved
    net.inject(Packet::new(901, 0, 1, 512, 0)); // both free
    let mut free_done = None;
    let mut blocked_done = None;
    for _ in 0..20_000u64 {
        let now = net.cycle();
        let _ = cu.step(now, &mut net);
        for d in net.step() {
            match d.packet.id {
                900 => blocked_done = Some(d.at),
                901 => free_done = Some(d.at),
                _ => {}
            }
        }
        if free_done.is_some() && blocked_done.is_some() {
            break;
        }
    }
    let (free, blocked) = (free_done.unwrap(), blocked_done.unwrap());
    assert!(free < 30, "unreserved traffic flows immediately: {free}");
    assert!(
        blocked > 500,
        "reserved traffic waits for teardown: {blocked}"
    );
    assert!(net.reserved_wires().is_empty(), "partition released");
}

#[test]
fn beta_gating_matches_scan_depth_semantics() {
    use flumen::scheduler::buffer_utilization;
    // One hot endpoint in sixteen.
    let mut depths = vec![0usize; 16];
    depths[7] = 14;
    let beta_global = buffer_utilization(&depths, 1.0, 16);
    let beta_scan = buffer_utilization(&depths, 0.5, 16);
    let beta_hot = buffer_utilization(&depths, 1.0 / 16.0, 16);
    assert!(beta_global < beta_scan && beta_scan < beta_hot);
}

#[test]
fn control_unit_drains_counts_once() {
    let mut cu = MzimControlUnit::new(ControlUnitParams::paper());
    let mut net = crossbar();
    cu.on_request(0, 0, 0, 1, [2, 8, 4, 0]);
    for _ in 0..200u64 {
        let now = net.cycle();
        let _ = cu.step(now, &mut net);
        net.step();
    }
    let mut counts = ActivityCounts::default();
    cu.drain_counts(&mut counts);
    assert_eq!(counts.mzim_reconfigs, 2);
    let mut again = ActivityCounts::default();
    cu.drain_counts(&mut again);
    assert_eq!(again.mzim_reconfigs, 0, "drain must reset");
}
