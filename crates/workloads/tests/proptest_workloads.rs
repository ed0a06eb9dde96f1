//! Property-based tests for benchmark construction and task generation.

use flumen_system::{CoreTask, SystemConfig};
use flumen_workloads::taskgen::{generate, ExecMode, TaskGenConfig};
use flumen_workloads::{Benchmark, ImageBlur, MvmJob, Operands, ResnetConv3, Rotation3d, Vgg16Fc};
use proptest::prelude::*;

fn stream_ops(tasks: &[Vec<CoreTask>]) -> u64 {
    tasks
        .iter()
        .flatten()
        .map(|t| match t {
            CoreTask::Stream { ops, .. } | CoreTask::Compute { ops } => *ops,
            _ => 0,
        })
        .sum()
}

fn external_macs(tasks: &[Vec<CoreTask>]) -> u64 {
    tasks
        .iter()
        .flatten()
        .map(|t| match t {
            CoreTask::External { payload, .. } => payload[3],
            _ => 0,
        })
        .sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Benchmarks of arbitrary size decompose into jobs whose exact
    /// evaluation reproduces the app's golden output.
    #[test]
    fn blur_jobs_always_verify(h in 4usize..24, w in 4usize..24, seed in any::<u32>()) {
        let b = ImageBlur::with_size(h, w, seed as u64);
        let results: Vec<_> = b.operands().iter().map(Operands::golden).collect();
        prop_assert!(b.verify(&results, 1e-9));
        prop_assert_eq!(b.total_macs(), (h * w * 3 * 9) as u64);
    }

    #[test]
    fn fc_jobs_always_verify(o in 2usize..24, i in 2usize..48, batch in 1usize..5, seed in any::<u32>()) {
        let b = Vgg16Fc::with_batch(o, i, batch, seed as u64);
        let results: Vec<_> = b.operands().iter().map(Operands::golden).collect();
        prop_assert!(b.verify(&results, 1e-9));
        prop_assert_eq!(b.batch(), batch);
        prop_assert_eq!(b.total_macs(), (o * i * batch) as u64);
    }

    #[test]
    fn conv_jobs_always_verify(h in 4usize..12, groups in 1usize..6, seed in any::<u32>()) {
        let b = ResnetConv3::with_size(h, h, groups, seed as u64);
        let results: Vec<_> = b.operands().iter().map(Operands::golden).collect();
        prop_assert!(b.verify(&results, 1e-9));
        prop_assert_eq!(b.jobs().len(), groups);
    }

    /// Local task generation accounts for all MACs at the configured
    /// ops-per-MAC rate (within rounding), for any benchmark size.
    #[test]
    fn local_taskgen_conserves_work(verts in 8usize..400, seed in any::<u32>()) {
        let b = Rotation3d::with_vertices(verts, seed as u64);
        let sys = SystemConfig::paper();
        let cfg = TaskGenConfig::default();
        let tasks = generate(&b, &sys, ExecMode::Local, &cfg);
        let got = stream_ops(&tasks) as f64;
        let want = b.total_macs() as f64 * cfg.ops_per_mac;
        prop_assert!(got >= want * 0.999 && got <= want * 1.05 + 64.0,
            "ops {got} vs macs·rate {want}");
    }

    /// Offload task generation covers all MACs through its External
    /// payloads, and every request carries a non-empty fallback.
    #[test]
    fn offload_taskgen_covers_macs(h in 4usize..20, seed in any::<u32>()) {
        let b = ImageBlur::with_size(h, h, seed as u64);
        let sys = SystemConfig::paper();
        let cfg = TaskGenConfig::default();
        let tasks = generate(&b, &sys, ExecMode::Offload, &cfg);
        prop_assert_eq!(external_macs(&tasks), b.total_macs());
        for t in tasks.iter().flatten() {
            if let CoreTask::External { fallback, .. } = t {
                prop_assert!(!fallback.is_empty());
            }
        }
    }

    /// All cores carry the same barrier ids in the same order.
    #[test]
    fn barriers_are_uniform_across_cores(h in 4usize..16, seed in any::<u32>()) {
        let b = ImageBlur::with_size(h, h, seed as u64);
        let sys = SystemConfig::paper();
        let tasks = generate(&b, &sys, ExecMode::Offload, &TaskGenConfig::default());
        let barrier_seq = |q: &Vec<CoreTask>| -> Vec<u32> {
            q.iter()
                .filter_map(|t| match t {
                    CoreTask::Barrier { id } => Some(*id),
                    _ => None,
                })
                .collect()
        };
        let first = barrier_seq(&tasks[0]);
        prop_assert!(!first.is_empty());
        for q in &tasks {
            prop_assert_eq!(barrier_seq(q), first.clone());
        }
    }

    /// Job block arithmetic is internally consistent.
    #[test]
    fn block_grid_consistency(rows in 1usize..40, cols in 1usize..40, n in 2usize..9) {
        let job = MvmJob {
            id: 0,
            wave: 0,
            rows,
            cols,
            vector_count: 3,
            orthogonal: false,
            weight_base: 0,
            input_base: 0,
            output_base: 0,
        };
        let (br, bc) = job.block_grid(n);
        prop_assert!(br * n >= rows && (br - 1) * n < rows);
        prop_assert!(bc * n >= cols && (bc - 1) * n < cols);
        prop_assert_eq!(job.block_mvms(n), (br * bc * 3) as u64);
        if bc == 1 {
            prop_assert_eq!(job.partial_sum_adds(n), 0);
        } else {
            prop_assert_eq!(job.partial_sum_adds(n), (br * n * (bc - 1) * 3) as u64);
        }
    }
}
