//! DNN layer offload: show how a fully-connected layer lowers onto SVD
//! MZIM blocks (spectral-norm scaling → zero padding → N×N block matmul,
//! paper §3.3), then run the full VGG16-FC benchmark through the system
//! simulator on every topology.
//!
//! Run with: `cargo run --release --example dnn_layer_offload`

use flumen::{run_benchmark, RuntimeConfig, SystemTopology};
use flumen_linalg::spectral_norm;
use flumen_workloads::{Benchmark, Vgg16Fc};

fn main() {
    // A reduced FC layer for the block-lowering walk-through.
    let layer = Vgg16Fc::with_size(24, 64, 0xF0C);
    let job = &layer.jobs()[0];
    let weights = &layer.operands()[0].matrix;
    let (block_rows, block_cols) = job.block_grid(4);
    println!(
        "FC layer {}×{}: ‖W‖₂ = {:.3}, blocked into {block_rows}×{block_cols} grid of 4×4 sub-MZIMs",
        job.rows,
        job.cols,
        spectral_norm(weights).expect("svd converges"),
    );
    println!(
        "  {} block MVMs per input vector ({} in all), {} partial-sum adds on the cores",
        block_rows * block_cols,
        job.block_mvms(4),
        job.partial_sum_adds(4),
    );

    // Full-size system runs.
    println!("\nVGG16 FC-1000 (1000×4096) across topologies:");
    let bench = Vgg16Fc::paper();
    let cfg = RuntimeConfig::paper();
    let mut mesh_cycles = 0u64;
    for topo in SystemTopology::all() {
        let r = run_benchmark(&bench, topo, &cfg);
        if topo == SystemTopology::Mesh {
            mesh_cycles = r.cycles;
        }
        let speedup = if mesh_cycles > 0 {
            mesh_cycles as f64 / r.cycles as f64
        } else {
            0.0
        };
        println!(
            "  {:9} {:>9} cycles ({:>7.1} µs)  {:>8.1} µJ   {:>5.2}x vs mesh",
            topo.name(),
            r.cycles,
            r.seconds * 1e6,
            r.total_energy_j() * 1e6,
            speedup,
        );
    }
    println!("\npaper: VGG16 FC is Flumen-A's weakest benchmark (2.0x vs mesh) —");
    println!("a single large kernel with no operand reuse and deep partial sums.");
}
