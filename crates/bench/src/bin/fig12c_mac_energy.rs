//! Fig. 12c — MAC energy for Flumen photonic computation as a function of
//! MZIM dimension and wavelength count.

use flumen_bench::{write_csv, Table};
use flumen_power::compute;

fn main() {
    println!("Fig. 12c: Flumen energy per MAC (pJ) vs MZIM dimension × wavelengths");
    let dims = [4usize, 8, 16, 32, 64];
    let lambdas = [1usize, 2, 4, 8];
    let mut table = Table::new(&["n", "1λ", "2λ", "4λ", "8λ"]);
    for &n in &dims {
        let mut row = vec![n.to_string()];
        for &p in &lambdas {
            row.push(format!("{:.4}", compute::flumen_mac_pj(n, p).value()));
        }
        table.row(row);
    }
    table.print();
    write_csv(
        "fig12c_mac_energy.csv",
        &table.csv_headers(),
        &table.csv_rows(),
    );
    println!(
        "\n  electrical reference: {:.4} pJ/MAC",
        compute::ELEC_MAC_PJ.value()
    );
    println!("  shape check: energy/MAC falls with both dimension and λ count");
}
