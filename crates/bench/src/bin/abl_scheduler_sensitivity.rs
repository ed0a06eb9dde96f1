//! §3.4 ablation — sensitivity of the Algorithm 1 parameters τ, η and ζ.
//!
//! The paper picks τ = 100 (collapse past ~170 as requests pile up),
//! η = 40 % (≲30 % too strict — compute starves; ≳55 % too aggressive —
//! computation blocks communication), and ζ = 50 %.
//!
//! Each (parameter, value) point is one sweep job, so the whole study
//! runs in parallel and re-runs are cache hits.

use flumen_bench::{run_sweep, scheduler_plan, scheduler_points, write_csv, Table};

fn main() {
    println!("§3.4 scheduler sensitivity on image_blur");
    let report = run_sweep("abl_scheduler_sensitivity", &scheduler_plan());

    let mut table = Table::new(&["param", "value", "cycles", "mzim_mvms"]);
    for ((param, value, _), result) in scheduler_points().into_iter().zip(&report.results) {
        let r = result.full_run();
        table.row(vec![
            param.to_string(),
            value,
            r.cycles.to_string(),
            r.counts.mzim_mvms.to_string(),
        ]);
    }
    table.print();
    write_csv(
        "abl_scheduler_sensitivity.csv",
        &table.csv_headers(),
        &table.csv_rows(),
    );
    println!("\n  paper operating point: tau=100, eta=0.40, zeta=0.50");
}
