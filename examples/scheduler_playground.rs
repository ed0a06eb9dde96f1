//! Scheduler playground: watch Algorithm 1 arbitrate between traffic and
//! computation in real time.
//!
//! Drives the MZIM control unit and crossbar directly (no full system):
//! a background traffic generator ramps load up and down while compute
//! requests arrive at a steady rate. The trace shows β (the ζ-scanned
//! buffer utilization), when partitions form, and when requests are
//! deferred — the paper's Fig. 8 + Algorithm 1 in action.
//!
//! Run with: `cargo run --release --example scheduler_playground`

use flumen::scheduler::buffer_utilization;
use flumen::{ControlUnitParams, MzimControlUnit};
use flumen_noc::traffic::{BernoulliInjector, TrafficPattern};
use flumen_noc::{MzimCrossbar, Network};
use flumen_system::ExternalServer;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let params = ControlUnitParams::paper();
    let sched = params.scheduler.clone();
    let mut cu = MzimControlUnit::new(params);
    let mut net = MzimCrossbar::flumen_16();
    let mut rng = StdRng::seed_from_u64(0x5EED);

    // Load profile: quiet → busy → quiet (fraction of link bandwidth).
    let phase_load = |cycle: u64| -> f64 {
        match cycle {
            0..=2_000 => 0.05,
            2_001..=6_000 => 0.55,
            _ => 0.05,
        }
    };

    let mut next_request_at = 500u64;
    let mut tag = 0u64;
    let mut completions = 0u64;
    println!(
        "{:>7} {:>6} {:>6} {:>9} {:>9} {:>9}",
        "cycle", "load", "beta", "queued", "admitted", "done"
    );
    for cycle in 0..10_000u64 {
        let load = phase_load(cycle);
        let mut inj = BernoulliInjector::new(load, 1024, 256, TrafficPattern::UniformRandom);
        for p in inj.generate(16, cycle, &mut rng) {
            net.inject(p);
        }
        // A compute request every ~500 cycles.
        if cycle == next_request_at {
            cu.on_request(cycle, 0, (tag as usize * 3) % 16, tag, [64, 256, 4, 0]);
            tag += 1;
            next_request_at += 500;
        }
        completions += cu
            .step(cycle, &mut net)
            .iter()
            .filter(|o| o.accepted)
            .count() as u64;
        net.step();

        if cycle % 500 == 0 {
            let beta = buffer_utilization(&net.queue_depths(), sched.zeta, sched.buffer_capacity);
            println!(
                "{:>7} {:>6.2} {:>6.2} {:>9} {:>9} {:>9}",
                cycle,
                load,
                beta,
                cu.queued(),
                cu.admitted(),
                completions
            );
        }
    }
    println!(
        "\nsummary: {} requests issued, {} admitted, {} rejected, {} completed",
        tag,
        cu.admitted(),
        cu.rejected(),
        completions
    );
    println!("expected shape: admissions stall during the 0.55-load burst");
    println!(
        "(β above η = {:.2}) and the backlog drains once traffic quiets.",
        sched.eta
    );
}
