//! Ablation — WDM width for computation: how many wavelengths the compute
//! path uses (Table 1 fixes 8; this sweeps 1…8 and reports Flumen-A
//! runtime, photonic energy and speedup on ResNet50 Conv3).

use flumen_bench::{run_sweep, speedup, wdm_plan, write_csv, Table, WDM_LAMBDAS};
use flumen_power::compute;
use flumen_sweep::JobResult;

fn main() {
    let report = run_sweep("abl_wdm_width", &wdm_plan());
    let mut runs = report.results.iter().map(JobResult::full_run);
    let mesh = runs.next().expect("plan has the mesh baseline");

    println!(
        "WDM compute width on {} (mesh baseline: {} cycles)",
        mesh.benchmark, mesh.cycles
    );
    let mut table = Table::new(&["lambdas", "fa_cycles", "speedup", "pj_per_mac_model"]);
    let mut rows = Vec::new();
    for (lambdas, fa) in WDM_LAMBDAS.into_iter().zip(runs) {
        let s = speedup(mesh.cycles, fa.cycles);
        let pj = compute::flumen_mac_pj(4, lambdas).value();
        table.row(vec![
            lambdas.to_string(),
            fa.cycles.to_string(),
            format!("{s:.2}x"),
            format!("{pj:.4}"),
        ]);
        rows.push(vec![
            lambdas.to_string(),
            fa.cycles.to_string(),
            format!("{s:.4}"),
            format!("{pj:.5}"),
        ]);
    }
    table.print();
    write_csv(
        "abl_wdm_width.csv",
        &["lambdas", "fa_cycles", "speedup_vs_mesh", "pj_per_mac"],
        &rows,
    );
    println!("\n  more compute wavelengths = more parallel MVMs per pass: both the");
    println!("  streaming time and the per-MAC energy fall (Fig. 12c's mechanism).");
}
