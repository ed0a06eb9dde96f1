//! Baseline vs torus: the hand-written mesh against the composed torus.
//!
//! Compares the hand-written 4×4 electrical mesh against the 4×4 torus
//! composed from router nodes on credit channels
//! (`flumen_noc::fabric::torus`, ~100 lines of declarative wiring) under
//! uniform random traffic: average latency and network energy per load
//! point. Wrap-around links halve the average hop count, so the torus
//! should sit below the mesh in both latency and bit-hop energy at every
//! load before saturation.
//!
//! Points run as `JobSpec::NocStats` sweep jobs — topology is a
//! serializable axis, so repeat runs are served from the content-hash
//! cache — and the binary prints a digest of every result for two-run
//! determinism comparison in CI.

use flumen_bench::{
    fig11_run_config, run_sweep, torus_loads, torus_plan, write_csv, Table, TORUS_NETS,
};
use flumen_power::{network_energy_j, EnergyParams, NopKind};
use flumen_sweep::hash::sha256_hex;
use flumen_sweep::{NocStatsPoint, ToJson};

fn main() {
    let report = run_sweep("fig_torus", &torus_plan());

    // Both fabrics are electrical input-queued routers, so the mesh
    // energy model applies to each; only the measured bit-hops differ.
    let params = EnergyParams::paper_7nm();
    let seconds = fig11_run_config().measure as f64 / 2.5e9;

    println!("Baseline 4x4 mesh vs combinator-built 4x4 torus (uniform random)");
    let mut table = Table::new(&[
        "load",
        "mesh_lat",
        "torus_lat",
        "mesh_uJ",
        "torus_uJ",
        "bit_hop_ratio",
    ]);
    let mut rows = Vec::new();
    let mut digest = String::new();
    let energy = |p: &NocStatsPoint| network_energy_j(&p.stats, seconds, NopKind::Mesh, &params);
    let latency = |p: &NocStatsPoint| {
        if p.latency.saturated {
            "sat".to_string()
        } else {
            format!("{:.1}", p.latency.avg_latency)
        }
    };
    for (load, pair) in torus_loads().into_iter().zip(report.results.chunks(2)) {
        for (net, result) in TORUS_NETS.iter().zip(pair) {
            let p = result.noc_stats();
            digest.push_str(&result.to_json().to_canonical());
            digest.push('\n');
            rows.push(vec![
                net.name().to_string(),
                format!("{load:.2}"),
                format!("{:.2}", p.latency.avg_latency),
                p.latency.saturated.to_string(),
                format!("{}", p.stats.bit_hops),
                format!("{:.6e}", energy(p)),
            ]);
        }
        let (mesh, torus) = (pair[0].noc_stats(), pair[1].noc_stats());
        table.row(vec![
            format!("{load:.2}"),
            latency(mesh),
            latency(torus),
            format!("{:.3}", energy(mesh) * 1e6),
            format!("{:.3}", energy(torus) * 1e6),
            format!(
                "{:.2}",
                torus.stats.bit_hops as f64 / mesh.stats.bit_hops.max(1) as f64
            ),
        ]);
    }
    table.print();
    write_csv(
        "fig_torus.csv",
        &[
            "topology",
            "load",
            "avg_latency",
            "saturated",
            "bit_hops",
            "energy_j",
        ],
        &rows,
    );
    println!("\n  result digest: {}", sha256_hex(digest.as_bytes()));
    println!("  expected shape: torus at or below mesh latency; bit_hop_ratio < 1 (wrap links shorten paths).");
}
