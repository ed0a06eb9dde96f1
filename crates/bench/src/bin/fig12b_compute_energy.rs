//! Fig. 12b — computation energy scaling: Flumen MZIM vs an
//! energy-efficient electrical approximate-MAC unit.

use flumen_bench::{write_csv, Table};
use flumen_power::compute;

fn main() {
    println!("Fig. 12b: matrix-multiplication energy (pJ), electrical MAC vs Flumen MZIM");
    let mut table = Table::new(&["n", "vectors", "electrical_pj", "flumen_pj", "reduction"]);
    for (n, p) in [
        (4usize, 4usize),
        (8, 4),
        (8, 8),
        (16, 4),
        (16, 8),
        (32, 8),
        (64, 1),
        (64, 4),
        (64, 8),
    ] {
        let e = compute::electrical_matmul_pj(n, p).value();
        let f = compute::flumen_matmul_pj(n, p).value();
        table.row(vec![
            n.to_string(),
            p.to_string(),
            format!("{e:.4}"),
            format!("{f:.4}"),
            format!("{:.2}", e / f),
        ]);
    }
    table.print();
    write_csv(
        "fig12b_compute_energy.csv",
        &table.csv_headers(),
        &table.csv_rows(),
    );

    println!("\n  paper anchors: 8x8/4vec: elec 69.2 / flumen 33.8 (2x);");
    println!("                 16x16/8vec: elec 554 / flumen 82 (~7x);");
    println!("                 64x64: flumen 620/1320/2240 pJ for 1/4/8 MVMs (1.8/3.4/4.0x)");
}
