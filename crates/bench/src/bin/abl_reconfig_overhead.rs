//! §5.2/E14 ablation — reconfiguration overheads.
//!
//! Two studies:
//! 1. The phase-DAC double-buffering assumption: sweep the fraction of the
//!    6 ns per-block switch that pipelining hides. At 0 the fabric spends
//!    almost all its time settling phases and block-heavy kernels lose;
//!    the paper's reported speedups imply a deeply pipelined control path.
//! 2. The communication impact of compute partitions: average packet
//!    latency on Flumen-A vs Flumen-I (paper: ~9 % increase).

use flumen_bench::{
    reconfig_benches, reconfig_plan, run_sweep, speedup, write_csv, Table, RECONFIG_PIPELINES,
};
use flumen_sweep::JobResult;

fn main() {
    let report = run_sweep("abl_reconfig_overhead", &reconfig_plan());
    let mut runs = report.results.iter().map(JobResult::full_run);

    println!("E14a: sensitivity to phase-DAC pipelining (per-block switch hiding)");
    let mut table = Table::new(&["bench", "pipeline", "fa_cycles", "vs_mesh"]);
    let mut rows = Vec::new();
    for bench in reconfig_benches() {
        let mesh = runs.next().expect("plan has the mesh baseline");
        for pipeline in RECONFIG_PIPELINES {
            let fa = runs.next().expect("plan has every pipelining point");
            let s = speedup(mesh.cycles, fa.cycles);
            table.row(vec![
                bench.name().into(),
                format!("{pipeline:.3}"),
                fa.cycles.to_string(),
                format!("{s:.2}x"),
            ]);
            rows.push(vec![
                bench.name().to_string(),
                format!("{pipeline:.3}"),
                fa.cycles.to_string(),
                format!("{s:.4}"),
            ]);
        }
    }
    table.print();
    write_csv(
        "abl_reconfig_pipelining.csv",
        &["bench", "pipeline", "fa_cycles", "speedup_vs_mesh"],
        &rows,
    );

    println!("\nE14b: packet-latency impact of compute partitions (paper: ~9% increase)");
    let mut table2 = Table::new(&["bench", "flumen_i_lat", "flumen_a_lat", "increase"]);
    let mut rows2 = Vec::new();
    for bench in reconfig_benches() {
        let fi = runs.next().expect("plan has the Flumen-I run");
        let fa = runs.next().expect("plan has the Flumen-A run");
        let (li, la) = (
            fi.avg_packet_latency().unwrap_or(0.0),
            fa.avg_packet_latency().unwrap_or(0.0),
        );
        let inc = 100.0 * (la - li) / li.max(1e-9);
        table2.row(vec![
            bench.name().into(),
            format!("{li:.1}"),
            format!("{la:.1}"),
            format!("{inc:+.1}%"),
        ]);
        rows2.push(vec![
            bench.name().to_string(),
            format!("{li:.3}"),
            format!("{la:.3}"),
            format!("{inc:.2}"),
        ]);
    }
    table2.print();
    write_csv(
        "abl_partition_latency.csv",
        &[
            "bench",
            "flumen_i_latency",
            "flumen_a_latency",
            "increase_pct",
        ],
        &rows2,
    );
}
