//! Runs every figure/table experiment (E1–E21) in sequence and leaves the
//! CSVs in `EXPERIMENTS-data/`. Pass `--quick` for a reduced smoke run.
//!
//! First it runs the union of every simulated figure's sweep plan, each
//! distinct job once, on all worker threads; the figure binaries then
//! resolve their plans from the cache and only format. The one simulation
//! outside any plan is fig01's 16/32/64 λ link-utilization traces: a
//! runtime configuration has no link-wavelength field, so they rerun.

use flumen_bench::{run_sweep, union_plan};
use std::process::Command;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");

    println!("================ sweep: every figure's plan ================");
    run_sweep("fig_all", &union_plan());

    let bins = [
        "fig01_link_utilization",
        "tab_area",
        "tab_link_power",
        "fig11_synthetic_traffic",
        "tab_network_energy",
        "fig12a_laser_power",
        "fig12b_compute_energy",
        "fig12c_mac_energy",
        "fig13_energy_breakdown",
        "fig14_speedup",
        "fig15_edp",
        "fig_torus",
        "abl_scheduler_sensitivity",
        "abl_reconfig_overhead",
        "abl_decomposition",
        "abl_thermal",
        "abl_wdm_width",
        "abl_batch_reuse",
        "abl_equalization",
        "abl_system_scale",
    ];
    let exe_dir = std::env::current_exe()
        .expect("current exe")
        .parent()
        .expect("exe dir")
        .to_path_buf();
    for bin in bins {
        println!("\n================ {bin} ================");
        let mut cmd = Command::new(exe_dir.join(bin));
        if quick {
            cmd.arg("--quick");
        }
        let status = cmd
            .status()
            .unwrap_or_else(|e| panic!("failed to spawn {bin}: {e}"));
        assert!(status.success(), "{bin} failed");
    }
    println!(
        "\nall experiments complete; CSVs in {}",
        flumen_bench::out_dir().display()
    );
}
