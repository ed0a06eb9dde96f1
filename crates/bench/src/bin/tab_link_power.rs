//! Supplementary table — itemized per-endpoint photonic power budgets,
//! making the §5.2 static-power calibration auditable from Table 2's
//! device constants.

use flumen::DeviceParams;
use flumen_bench::{write_csv, Table};
use flumen_power::{flumen_endpoint_budget, optbus_endpoint_budget};

fn main() {
    let dev = DeviceParams::paper();
    println!("per-endpoint photonic power budgets (mW), 16-node system");
    let mut table = Table::new(&[
        "topology",
        "lambdas",
        "laser",
        "tuning",
        "modulation",
        "tia",
        "serdes",
        "total",
    ]);
    let mut rows = Vec::new();
    for lambdas in [16usize, 32, 64] {
        for (name, b) in [
            ("flumen", flumen_endpoint_budget(16, lambdas, &dev)),
            ("optbus", optbus_endpoint_budget(16, lambdas, &dev)),
        ] {
            table.row(vec![
                name.into(),
                lambdas.to_string(),
                format!("{:.2}", b.laser_mw.value()),
                format!("{:.1}", b.tuning_mw.value()),
                format!("{:.1}", b.modulation_mw.value()),
                format!("{:.2}", b.tia_mw.value()),
                format!("{:.1}", b.serdes_mw.value()),
                format!("{:.1}", b.total_mw().value()),
            ]);
            rows.push(vec![
                name.to_string(),
                lambdas.to_string(),
                format!("{:.4}", b.laser_mw.value()),
                format!("{:.4}", b.tuning_mw.value()),
                format!("{:.4}", b.modulation_mw.value()),
                format!("{:.4}", b.tia_mw.value()),
                format!("{:.4}", b.serdes_mw.value()),
                format!("{:.4}", b.total_mw().value()),
            ]);
        }
    }
    table.print();
    write_csv(
        "tab_link_power.csv",
        &[
            "topology",
            "lambdas",
            "laser_mw",
            "tuning_mw",
            "modulation_mw",
            "tia_mw",
            "serdes_mw",
            "total_mw",
        ],
        &rows,
    );
    println!("\n  MRR thermal tuning dominates Flumen's endpoint envelope; the");
    println!("  loss-driven laser dominates the OptBus's — the two ends of the");
    println!("  §5.2 static-power calibration.");
}
