//! Extension study — batched FC inference.
//!
//! The paper attributes VGG16-FC's low speedup to batch-1 inference: each
//! weight block is configured once and used for a single vector. Batching
//! restores operand reuse, amortizing block configuration over the batch —
//! this study quantifies how quickly Flumen-A's advantage recovers.

use flumen_bench::{batch_plan, run_sweep, speedup, write_csv, Table, BATCHES};

fn main() {
    println!("batched VGG16-FC: Flumen-A speedup vs mesh");
    let report = run_sweep("abl_batch_reuse", &batch_plan());
    let mut table = Table::new(&["batch", "mesh_cycles", "fa_cycles", "speedup", "energyX"]);
    let mut rows = Vec::new();
    for (batch, pair) in BATCHES.into_iter().zip(report.results.chunks(2)) {
        let (mesh, fa) = (pair[0].full_run(), pair[1].full_run());
        let s = speedup(mesh.cycles, fa.cycles);
        let e = mesh.total_energy_j() / fa.total_energy_j();
        table.row(vec![
            batch.to_string(),
            mesh.cycles.to_string(),
            fa.cycles.to_string(),
            format!("{s:.2}x"),
            format!("{e:.2}x"),
        ]);
        rows.push(vec![
            batch.to_string(),
            mesh.cycles.to_string(),
            fa.cycles.to_string(),
            format!("{s:.4}"),
            format!("{e:.4}"),
        ]);
    }
    table.print();
    write_csv(
        "abl_batch_reuse.csv",
        &[
            "batch",
            "mesh_cycles",
            "fa_cycles",
            "speedup",
            "energy_ratio",
        ],
        &rows,
    );
    println!("\n  batch 1 is the paper's weakest case; reuse scales the win with batch");
    println!("  size until the cores' partial-sum accumulation becomes the bottleneck.");
}
