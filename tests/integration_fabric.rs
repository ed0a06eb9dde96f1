//! Integration: photonic fabric ↔ linear algebra ↔ workloads.
//!
//! Exercises the full physical path — Clements programming, partition
//! barriers, SVD circuits, loss equalization — against the benchmarks'
//! golden math.

use flumen::{FlumenFabric, PartitionConfig};
use flumen_linalg::{random_unitary, spectral_norm, RMat, C64};
use flumen_workloads::{dct8_matrix, Benchmark, ImageBlur, Rotation3d};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn fabric_routes_and_computes_simultaneously_with_benchmark_weights() {
    // Use the actual 3D-rotation matrix as the compute payload while the
    // other half routes a permutation.
    let rot = Rotation3d::small();
    let ops = &rot.operands()[0];
    let mut fabric = FlumenFabric::new(8).unwrap();
    fabric
        .set_partitions(&[
            (4, PartitionConfig::Comm),
            (4, PartitionConfig::Compute(&ops.matrix)),
        ])
        .unwrap();
    fabric.route_permutation_in(0, &[3, 0, 1, 2]).unwrap();

    // Every vertex transforms correctly through the bottom partition.
    for (v, gold) in ops.vectors.iter().zip(rot.golden_vertices()).take(8) {
        let y = fabric.compute_in(1, v).unwrap();
        for (a, b) in y.iter().zip(gold.iter()) {
            assert!((a - b).abs() < 1e-8);
        }
    }
    // And the comm partition still routes with unit power.
    let mut fields = vec![C64::ZERO; 8];
    fields[1] = C64::ONE;
    let out = fabric.propagate(&fields);
    assert!((out[0].norm_sqr() - 1.0).abs() < 1e-9);
}

#[test]
fn dct_matrix_runs_on_full_fabric_as_unitary() {
    let d = dct8_matrix();
    // The DCT is orthogonal: program it directly as the fabric's unitary.
    assert!((spectral_norm(&d).unwrap() - 1.0).abs() < 1e-9);
    let mut fabric = FlumenFabric::new(8).unwrap();
    fabric.configure_unitary(&d.to_cmat()).unwrap();
    let block_col: Vec<C64> = (0..8)
        .map(|i| C64::from_re(((i as f64) * 0.3).sin()))
        .collect();
    let out = fabric.propagate(&block_col);
    let exact = d.mul_vec(&block_col.iter().map(|z| z.re).collect::<Vec<_>>());
    for (o, e) in out.iter().zip(exact.iter()) {
        assert!((o.re - e).abs() < 1e-8);
        assert!(o.im.abs() < 1e-8);
    }
}

#[test]
fn blur_kernel_with_loss_equalization_still_blurs() {
    // Route a permutation, equalize losses, and confirm all receivers see
    // identical power — the §3.1.2 claim — using the blur benchmark's
    // image data as modulation amplitudes.
    let blur = ImageBlur::small();
    let img = blur.image();
    let dev = flumen::DeviceParams::paper();
    let mut fabric = FlumenFabric::new(8).unwrap();
    fabric
        .configure_permutation(&[6, 4, 2, 0, 7, 5, 3, 1])
        .unwrap();
    let worst_db = fabric.equalize_losses(&dev).unwrap();
    assert!(worst_db.value() > 0.0);
    let attens = fabric.attenuations();
    assert!(
        attens.iter().any(|&a| a < 1.0),
        "some path must be attenuated"
    );
    // Modulate with pixel values; the routed outputs carry them exactly
    // (the model keeps loss accounting separate from field propagation).
    let fields: Vec<C64> = (0..8).map(|i| C64::from_re(img.get(0, i, 0))).collect();
    let out = fabric.propagate(&fields);
    let perm = [6usize, 4, 2, 0, 7, 5, 3, 1];
    for (i, &p) in perm.iter().enumerate() {
        let sent = fields[i].norm_sqr();
        let atten = {
            let t = fabric.trace_route(i).unwrap();
            fabric.attenuations()[t.mid_wire]
        };
        let got = out[p].norm_sqr();
        assert!((got - sent * atten * atten).abs() < 1e-9);
    }
}

#[test]
fn random_unitaries_survive_fabric_round_trip() {
    let mut rng = StdRng::seed_from_u64(99);
    for _ in 0..5 {
        let u = random_unitary(8, &mut rng);
        let mut fabric = FlumenFabric::new(8).unwrap();
        fabric.configure_unitary(&u).unwrap();
        assert!(fabric.transfer_matrix().approx_eq(&u, 1e-8));
    }
}

#[test]
fn spectral_scaling_recovers_large_weights() {
    // Weights far outside the passive range still compute correctly
    // thanks to the §3.3.1 pre-scaling.
    let mut rng = StdRng::seed_from_u64(5);
    let big = RMat::from_fn(4, 4, |_, _| rng.gen_range(-10.0..10.0));
    let mut fabric = FlumenFabric::new(8).unwrap();
    fabric
        .set_partitions(&[
            (4, PartitionConfig::Compute(&big)),
            (4, PartitionConfig::Idle),
        ])
        .unwrap();
    let x = [0.3, -0.7, 0.2, 0.9];
    let y = fabric.compute_in(0, &x).unwrap();
    let exact = big.mul_vec(&x);
    for (a, b) in y.iter().zip(exact.iter()) {
        assert!((a - b).abs() < 1e-7 * (1.0 + b.abs()));
    }
}
