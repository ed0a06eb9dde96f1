//! The canonical JSON of existing job specs is pinned byte for byte.
//!
//! A spec's cache address is the SHA-256 of its canonical JSON, so any
//! change to these bytes orphans every cached result of that kind. The
//! literals below were printed before the batched VGG16-FC benchmark kind
//! existed; adding a kind must leave them, and so every existing cache
//! entry, addressable.

use flumen::{RuntimeConfig, SystemTopology};
use flumen_noc::harness::RunConfig;
use flumen_noc::traffic::TrafficPattern;
use flumen_sweep::{BenchKind, BenchSize, BenchSpec, FromJson, JobSpec, Json, NetSpec};

const PAPER_GRID_RUN: &str = r#"{"bench":{"kind":"image_blur","size":"paper"},"cfg":{"control":{"arbitration_cycles":4,"chiplets_per_wire":2,"compute_lambdas":8,"config_pipeline":0.995,"fabric_n":8,"max_partitions":2,"scheduler":{"buffer_capacity":16,"eta":0.4,"max_wait":100000,"reject_beta":0.85,"tau":100,"zeta":0.5},"stream_cycles_per_batch":0.5,"switch_cycles":15},"energy":{"core_busy_pj":10,"core_leak_w_per_core":0.25,"core_op_pj":6,"dram_background_w":0.5,"dram_pj":6000,"elec_router_static_w":0.02,"flumen_dacadc_static_w":0.35,"l1_pj":0.6,"l2_pj":2.5,"l3_leak_w":0.4,"l3_pj":20,"mesh_bit_pj":1.17,"mzim_comm_static_w":0.3,"optbus_static_w":0.5,"photonic_bit_pj":0.703,"ring_bit_pj":3.159},"max_cycles":80000000,"system":{"chiplets":16,"cores":64,"dram_latency":120,"freq_ghz":2.5,"ipc":2,"l1d":{"latency":1,"line_bytes":64,"size_bytes":32768,"ways":8},"l1i":{"latency":1,"line_bytes":64,"size_bytes":32768,"ways":4},"l2":{"latency":4,"line_bytes":64,"size_bytes":524288,"ways":8},"l3_slice":{"latency":20,"line_bytes":64,"size_bytes":1048576,"ways":16},"mlp":4,"reply_bits":576,"req_bits":128},"taskgen":{"max_configs_per_request":4096,"max_vectors_per_request":1024,"ops_per_mac":6,"svd_partition":4,"unit_macs":16384,"unitary_partition":8},"trace_interval":0},"job":"full_run","topology":"flumen_a"}"#;

const SMALL_GRID_RUN: &str = r#"{"bench":{"kind":"rotation_3d","size":"small"},"cfg":{"control":{"arbitration_cycles":4,"chiplets_per_wire":2,"compute_lambdas":8,"config_pipeline":0.995,"fabric_n":8,"max_partitions":2,"scheduler":{"buffer_capacity":16,"eta":0.4,"max_wait":100000,"reject_beta":0.85,"tau":100,"zeta":0.5},"stream_cycles_per_batch":0.5,"switch_cycles":15},"energy":{"core_busy_pj":10,"core_leak_w_per_core":0.25,"core_op_pj":6,"dram_background_w":0.5,"dram_pj":6000,"elec_router_static_w":0.02,"flumen_dacadc_static_w":0.35,"l1_pj":0.6,"l2_pj":2.5,"l3_leak_w":0.4,"l3_pj":20,"mesh_bit_pj":1.17,"mzim_comm_static_w":0.3,"optbus_static_w":0.5,"photonic_bit_pj":0.703,"ring_bit_pj":3.159},"max_cycles":80000000,"system":{"chiplets":16,"cores":64,"dram_latency":120,"freq_ghz":2.5,"ipc":2,"l1d":{"latency":1,"line_bytes":64,"size_bytes":32768,"ways":8},"l1i":{"latency":1,"line_bytes":64,"size_bytes":32768,"ways":4},"l2":{"latency":4,"line_bytes":64,"size_bytes":524288,"ways":8},"l3_slice":{"latency":20,"line_bytes":64,"size_bytes":1048576,"ways":16},"mlp":4,"reply_bits":576,"req_bits":128},"taskgen":{"max_configs_per_request":4096,"max_vectors_per_request":1024,"ops_per_mac":6,"svd_partition":4,"unit_macs":16384,"unitary_partition":8},"trace_interval":0},"job":"full_run","topology":"mesh"}"#;

const NOC_POINT: &str = r#"{"cfg":{"link_bits_per_cycle":256,"measure":10000,"packet_bits":1024,"seed":241,"warmup":2000},"job":"noc_point","load":0.25,"net":{"net":"flumen","nodes":16},"pattern":"uniform_random"}"#;

const NOC_STATS: &str = r#"{"cfg":{"link_bits_per_cycle":256,"measure":2000,"packet_bits":1024,"seed":241,"warmup":300},"job":"noc_stats","load":0.1,"net":{"height":4,"net":"mesh","width":4},"pattern":"shuffle"}"#;

fn full_run(kind: BenchKind, size: BenchSize, topology: SystemTopology) -> JobSpec {
    JobSpec::FullRun {
        bench: BenchSpec { kind, size },
        topology,
        cfg: RuntimeConfig::paper(),
    }
}

fn parse(text: &str) -> Result<JobSpec, flumen_sweep::JsonError> {
    JobSpec::from_json(&Json::parse(text)?)
}

#[test]
fn existing_spec_bytes_are_pinned() {
    let pinned = [
        (
            full_run(
                BenchKind::ImageBlur,
                BenchSize::Paper,
                SystemTopology::FlumenA,
            ),
            PAPER_GRID_RUN,
        ),
        (
            full_run(
                BenchKind::Rotation3d,
                BenchSize::Small,
                SystemTopology::Mesh,
            ),
            SMALL_GRID_RUN,
        ),
        (
            JobSpec::NocPoint {
                net: NetSpec::Flumen { nodes: 16 },
                pattern: TrafficPattern::UniformRandom,
                load: 0.25,
                cfg: RunConfig::default(),
            },
            NOC_POINT,
        ),
        (
            JobSpec::NocStats {
                net: NetSpec::Mesh {
                    width: 4,
                    height: 4,
                },
                pattern: TrafficPattern::Shuffle,
                load: 0.1,
                cfg: RunConfig {
                    warmup: 300,
                    measure: 2_000,
                    ..RunConfig::default()
                },
            },
            NOC_STATS,
        ),
    ];
    for (spec, bytes) in pinned {
        assert_eq!(spec.canonical_json(), bytes, "{}", spec.label());
        assert_eq!(parse(bytes).unwrap(), spec);
    }
}

#[test]
fn batched_vgg_spec_round_trips() {
    for size in [BenchSize::Paper, BenchSize::Small] {
        let kind = BenchKind::Vgg16FcBatched { batch: 4 };
        assert_eq!(BenchSpec { kind, size }.instantiate().name(), "vgg16_fc");
        let spec = full_run(kind, size, SystemTopology::FlumenA);
        let text = spec.canonical_json();
        assert!(text.contains(r#""bench":{"batch":4,"kind":"vgg16_fc_batched","#));
        assert_eq!(parse(&text).unwrap(), spec);
        // Shares the display name with the batch-1 kind, not its address.
        let plain = full_run(BenchKind::Vgg16Fc, size, SystemTopology::FlumenA);
        assert_eq!(spec.label(), plain.label());
        assert_ne!(spec.content_hash(), plain.content_hash());
    }
}

#[test]
fn unknown_or_invalid_bench_kinds_are_errors() {
    let with_bench =
        |bench: &str| SMALL_GRID_RUN.replacen(r#"{"kind":"rotation_3d","size":"small"}"#, bench, 1);
    for bench in [
        r#"{"kind":"vgg16_fc_huge","size":"small"}"#,
        r#"{"kind":"vgg16_fc_batched","size":"small"}"#,
        r#"{"batch":0,"kind":"vgg16_fc_batched","size":"small"}"#,
    ] {
        let text = with_bench(bench);
        assert_ne!(text, SMALL_GRID_RUN);
        assert!(parse(&text).is_err(), "{bench} parsed");
    }
}
