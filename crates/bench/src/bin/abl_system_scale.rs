//! Scaling study — Flumen across system sizes (§5.1's scaling argument,
//! taken beyond area): 8/16/32 chiplets (32/64/128 cores) running ResNet50
//! Conv3 on Mesh vs Flumen-A, with the fabric and control unit scaled to
//! `chiplets/2` inputs. Fabric area comes along from the §5.1 model.
//!
//! The chiplet-count × topology grid is an explicit sweep-job list, so
//! the six (heavy) runs execute in parallel and repeat runs hit the
//! cache.

use flumen_bench::{
    run_sweep, speedup, system_scale_plan, write_csv, Table, SYSTEM_SCALE_CHIPLETS,
};
use flumen_power::area;

fn main() {
    println!("system scaling on resnet50_conv3 (fabric = chiplets/2 inputs)");
    let report = run_sweep("abl_system_scale", &system_scale_plan());

    let mut table = Table::new(&[
        "chiplets",
        "cores",
        "mesh_cyc",
        "fa_cyc",
        "speedup",
        "fabric_mm2",
    ]);
    let mut rows = Vec::new();
    for (i, chiplets) in SYSTEM_SCALE_CHIPLETS.into_iter().enumerate() {
        let mesh = report.results[2 * i].full_run();
        let fa = report.results[2 * i + 1].full_run();
        let s = speedup(mesh.cycles, fa.cycles);
        let fabric_mm2 = area::mzim_area_mm2(chiplets / 2);
        table.row(vec![
            chiplets.to_string(),
            (chiplets * 4).to_string(),
            mesh.cycles.to_string(),
            fa.cycles.to_string(),
            format!("{s:.2}x"),
            format!("{fabric_mm2:.2}"),
        ]);
        rows.push(vec![
            chiplets.to_string(),
            mesh.cycles.to_string(),
            fa.cycles.to_string(),
            format!("{s:.4}"),
            format!("{fabric_mm2:.4}"),
        ]);
    }
    table.print();
    write_csv(
        "abl_system_scale.csv",
        &[
            "chiplets",
            "mesh_cycles",
            "fa_cycles",
            "speedup",
            "fabric_mm2",
        ],
        &rows,
    );
    println!("\n  a fixed workload over more cores shrinks both runtimes; the fabric's");
    println!("  wider partitions (chiplets/2 inputs) keep the offload win roughly flat");
    println!("  while its interposer area grows quadratically (§5.1).");
}
