//! Image Blur, end to end: runs the paper's Image Blur benchmark on the
//! electrical mesh and on Flumen-A (with in-network photonic compute) and
//! compares cycles, energy and EDP.
//!
//! Run with: `cargo run --release --example image_blur_offload`

use flumen::{run_benchmark, RuntimeConfig, SystemTopology};
use flumen_workloads::{Benchmark, ImageBlur};

fn main() {
    let cfg = RuntimeConfig::paper();
    let full = ImageBlur::paper();
    println!("Image Blur: 256×256 RGB, {} MACs", full.total_macs());
    let mesh = run_benchmark(&full, SystemTopology::Mesh, &cfg);
    let fa = run_benchmark(&full, SystemTopology::FlumenA, &cfg);
    println!(
        "  mesh:     {:>9} cycles  {:>8.1} µJ",
        mesh.cycles,
        mesh.total_energy_j() * 1e6
    );
    println!(
        "  flumen-a: {:>9} cycles  {:>8.1} µJ   ({} offload requests, {} photonic MVMs)",
        fa.cycles,
        fa.total_energy_j() * 1e6,
        fa.counts.offload_requests,
        fa.counts.mzim_mvms
    );
    println!(
        "  speedup {:.2}x   energy {:.2}x   edp {:.2}x",
        mesh.cycles as f64 / fa.cycles as f64,
        mesh.total_energy_j() / fa.total_energy_j(),
        mesh.edp() / fa.edp()
    );
}
