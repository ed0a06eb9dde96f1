//! The unit of work: a fully-serializable experiment specification.
//!
//! A [`JobSpec`] captures *everything* that determines a simulation's
//! output — benchmark, topology, every runtime parameter, and (for NoC
//! jobs) the traffic pattern, offered load and injection seed. Two specs
//! with the same content hash are guaranteed to produce the same result,
//! which is what makes the content-addressed cache sound and parallel
//! execution deterministic: each job is self-contained, carries its own
//! seed, and shares no mutable state with its siblings.

use crate::hash::sha256_hex;
use crate::json::{FromJson, Json, JsonError, ToJson};
use flumen::{run_benchmark, FullRunResult, RuntimeConfig, SystemTopology};
use flumen_noc::harness::{measure_point, LatencyPoint, RunConfig};
use flumen_noc::traffic::TrafficPattern;
use flumen_noc::{
    torus, BusConfig, CrossbarConfig, MzimCrossbar, NetStats, Network, OpticalBus, RoutedConfig,
    RoutedNetwork, RoutedTopology,
};
use flumen_workloads::{Benchmark, ImageBlur, Jpeg, ResnetConv3, Rotation3d, Vgg16Fc};

/// Version salt mixed into every job hash. Bump this whenever simulator
/// *code* changes in a result-affecting way that the serialized parameters
/// don't capture — every cached result is then invalidated at once.
pub const CODE_VERSION: &str = "flumen-sim-v2";

/// Which benchmark kernel a job runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BenchKind {
    /// 3×3 Gaussian blur (`image_blur`).
    ImageBlur,
    /// VGG-16 fully-connected layer (`vgg16_fc`).
    Vgg16Fc,
    /// The same layer applied to `batch` input vectors per weight block
    /// (`vgg16_fc`, the batched-reuse study).
    Vgg16FcBatched {
        /// Input vectors per weight block (positive).
        batch: usize,
    },
    /// ResNet-50 conv3 block (`resnet50_conv3`).
    ResnetConv3,
    /// JPEG forward DCT (`jpeg`).
    Jpeg,
    /// Batched 3-D rotations (`rotation_3d`).
    Rotation3d,
}

/// Problem size: the paper's full inputs or the `--quick` smoke inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BenchSize {
    /// Full paper-scale input.
    Paper,
    /// Reduced input for smoke runs (`--quick`).
    Small,
}

/// A benchmark choice that can be serialized and instantiated on demand.
///
/// The spec stores only the (kind, size) pair; whichever worker thread
/// runs the job builds the benchmark's shapes from it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BenchSpec {
    /// Kernel.
    pub kind: BenchKind,
    /// Input scale.
    pub size: BenchSize,
}

impl BenchSpec {
    /// All five paper benchmarks at the given size.
    pub fn all(size: BenchSize) -> Vec<BenchSpec> {
        [
            BenchKind::ImageBlur,
            BenchKind::Vgg16Fc,
            BenchKind::ResnetConv3,
            BenchKind::Jpeg,
            BenchKind::Rotation3d,
        ]
        .into_iter()
        .map(|kind| BenchSpec { kind, size })
        .collect()
    }

    /// The benchmark's display name (matches `Benchmark::name()`).
    pub fn name(&self) -> &'static str {
        match self.kind {
            BenchKind::ImageBlur => "image_blur",
            BenchKind::Vgg16Fc | BenchKind::Vgg16FcBatched { .. } => "vgg16_fc",
            BenchKind::ResnetConv3 => "resnet50_conv3",
            BenchKind::Jpeg => "jpeg",
            BenchKind::Rotation3d => "rotation_3d",
        }
    }

    /// Builds the workload's job shapes (no operand data).
    pub fn instantiate(&self) -> Box<dyn Benchmark> {
        match (self.kind, self.size) {
            (BenchKind::ImageBlur, BenchSize::Paper) => Box::new(ImageBlur::paper()),
            (BenchKind::ImageBlur, BenchSize::Small) => Box::new(ImageBlur::small()),
            (BenchKind::Vgg16Fc, BenchSize::Paper) => Box::new(Vgg16Fc::paper()),
            (BenchKind::Vgg16Fc, BenchSize::Small) => Box::new(Vgg16Fc::small()),
            (BenchKind::Vgg16FcBatched { batch }, BenchSize::Paper) => {
                Box::new(Vgg16Fc::with_batch(1000, 4096, batch, 0xF0C))
            }
            (BenchKind::Vgg16FcBatched { batch }, BenchSize::Small) => {
                Box::new(Vgg16Fc::with_batch(64, 256, batch, 0xF0C))
            }
            (BenchKind::ResnetConv3, BenchSize::Paper) => Box::new(ResnetConv3::paper()),
            (BenchKind::ResnetConv3, BenchSize::Small) => Box::new(ResnetConv3::small()),
            (BenchKind::Jpeg, BenchSize::Paper) => Box::new(Jpeg::paper()),
            (BenchKind::Jpeg, BenchSize::Small) => Box::new(Jpeg::small()),
            (BenchKind::Rotation3d, BenchSize::Paper) => Box::new(Rotation3d::paper()),
            (BenchKind::Rotation3d, BenchSize::Small) => Box::new(Rotation3d::small()),
        }
    }
}

impl ToJson for BenchSpec {
    fn to_json(&self) -> Json {
        let size = match self.size {
            BenchSize::Paper => "paper",
            BenchSize::Small => "small",
        };
        let mut fields = vec![("size", Json::Str(size.to_string()))];
        match self.kind {
            BenchKind::Vgg16FcBatched { batch } => {
                fields.push(("kind", Json::Str("vgg16_fc_batched".into())));
                fields.push(("batch", batch.to_json()));
            }
            _ => fields.push(("kind", Json::Str(self.name().to_string()))),
        }
        Json::obj(fields)
    }
}

impl FromJson for BenchSpec {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        let kind = match j.get("kind")?.as_str()? {
            "image_blur" => BenchKind::ImageBlur,
            "vgg16_fc" => BenchKind::Vgg16Fc,
            "vgg16_fc_batched" => match j.get("batch")?.as_usize()? {
                0 => return Err(JsonError("batch must be positive".into())),
                batch => BenchKind::Vgg16FcBatched { batch },
            },
            "resnet50_conv3" => BenchKind::ResnetConv3,
            "jpeg" => BenchKind::Jpeg,
            "rotation_3d" => BenchKind::Rotation3d,
            other => return Err(JsonError(format!("unknown benchmark {other:?}"))),
        };
        let size = match j.get("size")?.as_str()? {
            "paper" => BenchSize::Paper,
            "small" => BenchSize::Small,
            other => return Err(JsonError(format!("unknown bench size {other:?}"))),
        };
        Ok(BenchSpec { kind, size })
    }
}

/// A serializable NoC instance for synthetic-traffic jobs (Fig. 11).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetSpec {
    /// Bidirectional electrical ring.
    Ring {
        /// Router count.
        nodes: usize,
    },
    /// Electrical mesh with XY routing.
    Mesh {
        /// Routers per row.
        width: usize,
        /// Rows.
        height: usize,
    },
    /// Shared optical bus (SWMR waveguides).
    OptBus {
        /// Endpoint count.
        nodes: usize,
    },
    /// Flumen MZIM crossbar.
    Flumen {
        /// Endpoint count.
        nodes: usize,
    },
    /// Electrical 2-D torus composed from router nodes on credit channels
    /// ([`flumen_noc::fabric`]), dimension-order routed.
    Torus {
        /// Routers per row.
        width: usize,
        /// Rows.
        height: usize,
    },
}

impl NetSpec {
    /// The four 16-node networks of Fig. 11.
    pub fn fig11() -> [NetSpec; 4] {
        [
            NetSpec::Ring { nodes: 16 },
            NetSpec::Mesh {
                width: 4,
                height: 4,
            },
            NetSpec::OptBus { nodes: 16 },
            NetSpec::Flumen { nodes: 16 },
        ]
    }

    /// Short display name ("ring", "mesh", "optbus", "flumen").
    pub fn name(&self) -> &'static str {
        match self {
            NetSpec::Ring { .. } => "ring",
            NetSpec::Mesh { .. } => "mesh",
            NetSpec::OptBus { .. } => "optbus",
            NetSpec::Flumen { .. } => "flumen",
            NetSpec::Torus { .. } => "torus",
        }
    }

    /// Builds the network with Table 1 (default) per-topology parameters.
    ///
    /// # Panics
    ///
    /// Panics if the spec describes an invalid topology (e.g. 1 node, a
    /// ring or mesh above 64 routers, or a flumen crossbar above 64
    /// nodes).
    pub fn build(&self) -> Box<dyn Network> {
        match *self {
            NetSpec::Ring { nodes } => Box::new(
                RoutedNetwork::new(RoutedTopology::Ring { nodes }, RoutedConfig::default())
                    .expect("valid ring"),
            ),
            NetSpec::Mesh { width, height } => Box::new(
                RoutedNetwork::new(
                    RoutedTopology::Mesh { width, height },
                    RoutedConfig::default(),
                )
                .expect("valid mesh"),
            ),
            NetSpec::OptBus { nodes } => {
                Box::new(OpticalBus::new(nodes, BusConfig::default()).expect("valid bus"))
            }
            NetSpec::Flumen { nodes } => {
                Box::new(MzimCrossbar::new(nodes, CrossbarConfig::default()).expect("valid xbar"))
            }
            NetSpec::Torus { width, height } => {
                Box::new(torus(width, height, &RoutedConfig::default()).expect("valid torus"))
            }
        }
    }
}

impl ToJson for NetSpec {
    fn to_json(&self) -> Json {
        let mut fields = vec![("net", Json::Str(self.name().to_string()))];
        match *self {
            NetSpec::Ring { nodes } | NetSpec::OptBus { nodes } | NetSpec::Flumen { nodes } => {
                fields.push(("nodes", nodes.to_json()));
            }
            NetSpec::Mesh { width, height } | NetSpec::Torus { width, height } => {
                fields.push(("width", width.to_json()));
                fields.push(("height", height.to_json()));
            }
        }
        Json::obj(fields)
    }
}

impl FromJson for NetSpec {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        match j.get("net")?.as_str()? {
            "ring" => Ok(NetSpec::Ring {
                nodes: j.get("nodes")?.as_usize()?,
            }),
            "mesh" => Ok(NetSpec::Mesh {
                width: j.get("width")?.as_usize()?,
                height: j.get("height")?.as_usize()?,
            }),
            "optbus" => Ok(NetSpec::OptBus {
                nodes: j.get("nodes")?.as_usize()?,
            }),
            "flumen" => Ok(NetSpec::Flumen {
                nodes: j.get("nodes")?.as_usize()?,
            }),
            "torus" => Ok(NetSpec::Torus {
                width: j.get("width")?.as_usize()?,
                height: j.get("height")?.as_usize()?,
            }),
            other => Err(JsonError(format!("unknown net {other:?}"))),
        }
    }
}

/// One experiment: every input that determines its result.
//
// The size skew between variants is real (RuntimeConfig is ~500 bytes vs
// RunConfig's ~30) but specs live in plan vectors measured in dozens, not
// millions — boxing would cost more in construction-site noise than it
// saves in memory.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum JobSpec {
    /// A full-system benchmark run (`flumen::run_benchmark`) — the unit
    /// behind Figs. 13–15 and the system-level ablations.
    FullRun {
        /// Workload.
        bench: BenchSpec,
        /// System topology.
        topology: SystemTopology,
        /// Complete runtime parameters (system, scheduler, energy, …).
        cfg: RuntimeConfig,
    },
    /// A synthetic-traffic latency measurement
    /// (`flumen_noc::harness::measure_point`) — the unit behind Fig. 11.
    NocPoint {
        /// Network under test.
        net: NetSpec,
        /// Destination pattern.
        pattern: TrafficPattern,
        /// Offered load, packets/node/cycle.
        load: f64,
        /// Harness parameters, including the injection seed.
        cfg: RunConfig,
    },
    /// Like [`JobSpec::NocPoint`] but the result additionally carries the
    /// measurement window's raw [`NetStats`] counters, so drivers can do
    /// energy accounting (bit-hops, link occupancy) on cached results —
    /// the unit behind the baseline-vs-torus comparison driver.
    NocStats {
        /// Network under test.
        net: NetSpec,
        /// Destination pattern.
        pattern: TrafficPattern,
        /// Offered load, packets/node/cycle.
        load: f64,
        /// Harness parameters, including the injection seed.
        cfg: RunConfig,
    },
}

impl JobSpec {
    /// Human-readable label for logs and manifests.
    pub fn label(&self) -> String {
        match self {
            JobSpec::FullRun {
                bench, topology, ..
            } => {
                format!("run/{}/{}", bench.name(), topology.name())
            }
            JobSpec::NocPoint {
                net, pattern, load, ..
            } => {
                format!("noc/{}/{}/load{:.3}", net.name(), pattern.name(), load)
            }
            JobSpec::NocStats {
                net, pattern, load, ..
            } => {
                format!("nocstats/{}/{}/load{:.3}", net.name(), pattern.name(), load)
            }
        }
    }

    /// The canonical serialized form hashed for cache addressing.
    pub fn canonical_json(&self) -> String {
        self.to_json().to_canonical()
    }

    /// Content hash: SHA-256 over the canonical JSON plus [`CODE_VERSION`].
    /// Any parameter or code-version change yields a new hash, so stale
    /// cache entries can never be returned for a changed experiment.
    pub fn content_hash(&self) -> String {
        let payload = format!("{}\n{}", CODE_VERSION, self.canonical_json());
        sha256_hex(payload.as_bytes())
    }

    /// Runs the experiment to completion. Pure function of the spec:
    /// all randomness is seeded from fields hashed above.
    pub fn execute(&self) -> JobResult {
        match self {
            JobSpec::FullRun {
                bench,
                topology,
                cfg,
            } => {
                let workload = bench.instantiate();
                JobResult::FullRun(run_benchmark(workload.as_ref(), *topology, cfg))
            }
            JobSpec::NocPoint {
                net,
                pattern,
                load,
                cfg,
            } => {
                let mut network = net.build();
                JobResult::NocPoint(measure_point(network.as_mut(), *pattern, *load, cfg))
            }
            JobSpec::NocStats {
                net,
                pattern,
                load,
                cfg,
            } => {
                let mut network = net.build();
                let latency = measure_point(network.as_mut(), *pattern, *load, cfg);
                JobResult::NocStats(NocStatsPoint {
                    latency,
                    stats: network.stats().clone(),
                })
            }
        }
    }
}

impl ToJson for JobSpec {
    fn to_json(&self) -> Json {
        match self {
            JobSpec::FullRun {
                bench,
                topology,
                cfg,
            } => Json::obj([
                ("job", Json::Str("full_run".into())),
                ("bench", bench.to_json()),
                ("topology", topology.to_json()),
                ("cfg", cfg.to_json()),
            ]),
            JobSpec::NocPoint {
                net,
                pattern,
                load,
                cfg,
            } => Json::obj([
                ("job", Json::Str("noc_point".into())),
                ("net", net.to_json()),
                ("pattern", pattern.to_json()),
                ("load", load.to_json()),
                ("cfg", cfg.to_json()),
            ]),
            JobSpec::NocStats {
                net,
                pattern,
                load,
                cfg,
            } => Json::obj([
                ("job", Json::Str("noc_stats".into())),
                ("net", net.to_json()),
                ("pattern", pattern.to_json()),
                ("load", load.to_json()),
                ("cfg", cfg.to_json()),
            ]),
        }
    }
}

impl FromJson for JobSpec {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        match j.get("job")?.as_str()? {
            "full_run" => Ok(JobSpec::FullRun {
                bench: FromJson::from_json(j.get("bench")?)?,
                topology: FromJson::from_json(j.get("topology")?)?,
                cfg: FromJson::from_json(j.get("cfg")?)?,
            }),
            "noc_point" => Ok(JobSpec::NocPoint {
                net: FromJson::from_json(j.get("net")?)?,
                pattern: FromJson::from_json(j.get("pattern")?)?,
                load: FromJson::from_json(j.get("load")?)?,
                cfg: FromJson::from_json(j.get("cfg")?)?,
            }),
            "noc_stats" => Ok(JobSpec::NocStats {
                net: FromJson::from_json(j.get("net")?)?,
                pattern: FromJson::from_json(j.get("pattern")?)?,
                load: FromJson::from_json(j.get("load")?)?,
                cfg: FromJson::from_json(j.get("cfg")?)?,
            }),
            other => Err(JsonError(format!("unknown job kind {other:?}"))),
        }
    }
}

/// A latency point plus the raw network counters behind it. The stats
/// cover the measurement window (the harness resets them after warmup),
/// so `seconds = cfg.measure / clock_hz` is the matching wall-time for
/// static-power integration.
#[derive(Debug, Clone)]
pub struct NocStatsPoint {
    /// The latency/throughput measurement.
    pub latency: LatencyPoint,
    /// Measurement-window counters (bit-hops, link occupancy, …).
    pub stats: NetStats,
}

impl ToJson for NocStatsPoint {
    fn to_json(&self) -> Json {
        Json::obj([
            ("latency", self.latency.to_json()),
            ("stats", self.stats.to_json()),
        ])
    }
}

impl FromJson for NocStatsPoint {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        Ok(NocStatsPoint {
            latency: FromJson::from_json(j.get("latency")?)?,
            stats: FromJson::from_json(j.get("stats")?)?,
        })
    }
}

/// A completed job's output.
#[allow(clippy::large_enum_variant)] // same trade-off as JobSpec
#[derive(Debug, Clone)]
pub enum JobResult {
    /// Output of a [`JobSpec::FullRun`].
    FullRun(FullRunResult),
    /// Output of a [`JobSpec::NocPoint`].
    NocPoint(LatencyPoint),
    /// Output of a [`JobSpec::NocStats`].
    NocStats(NocStatsPoint),
}

impl JobResult {
    /// The full-system result.
    ///
    /// # Panics
    ///
    /// Panics if this is a NoC-point result.
    pub fn full_run(&self) -> &FullRunResult {
        match self {
            JobResult::FullRun(r) => r,
            _ => panic!("expected full-run result"),
        }
    }

    /// The latency-point result (plain or stats-carrying).
    ///
    /// # Panics
    ///
    /// Panics if this is a full-run result.
    pub fn latency(&self) -> &LatencyPoint {
        match self {
            JobResult::NocPoint(p) => p,
            JobResult::NocStats(p) => &p.latency,
            JobResult::FullRun(_) => panic!("expected NoC point, got full-run result"),
        }
    }

    /// The stats-carrying latency result.
    ///
    /// # Panics
    ///
    /// Panics if this is not a [`JobResult::NocStats`].
    pub fn noc_stats(&self) -> &NocStatsPoint {
        match self {
            JobResult::NocStats(p) => p,
            _ => panic!("expected NoC stats result"),
        }
    }
}

impl ToJson for JobResult {
    fn to_json(&self) -> Json {
        match self {
            JobResult::FullRun(r) => Json::obj([
                ("kind", Json::Str("full_run".into())),
                ("data", r.to_json()),
            ]),
            JobResult::NocPoint(p) => Json::obj([
                ("kind", Json::Str("noc_point".into())),
                ("data", p.to_json()),
            ]),
            JobResult::NocStats(p) => Json::obj([
                ("kind", Json::Str("noc_stats".into())),
                ("data", p.to_json()),
            ]),
        }
    }
}

impl FromJson for JobResult {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        match j.get("kind")?.as_str()? {
            "full_run" => Ok(JobResult::FullRun(FromJson::from_json(j.get("data")?)?)),
            "noc_point" => Ok(JobResult::NocPoint(FromJson::from_json(j.get("data")?)?)),
            "noc_stats" => Ok(JobResult::NocStats(FromJson::from_json(j.get("data")?)?)),
            other => Err(JsonError(format!("unknown result kind {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_full_run() -> JobSpec {
        JobSpec::FullRun {
            bench: BenchSpec {
                kind: BenchKind::Rotation3d,
                size: BenchSize::Small,
            },
            topology: SystemTopology::FlumenA,
            cfg: RuntimeConfig::paper(),
        }
    }

    fn sample_noc() -> JobSpec {
        JobSpec::NocPoint {
            net: NetSpec::Flumen { nodes: 16 },
            pattern: TrafficPattern::Shuffle,
            load: 0.25,
            cfg: RunConfig::default(),
        }
    }

    fn sample_torus_stats() -> JobSpec {
        JobSpec::NocStats {
            net: NetSpec::Torus {
                width: 4,
                height: 4,
            },
            pattern: TrafficPattern::UniformRandom,
            load: 0.2,
            cfg: RunConfig::default(),
        }
    }

    #[test]
    fn specs_round_trip_through_json() {
        for spec in [sample_full_run(), sample_noc(), sample_torus_stats()] {
            let text = spec.canonical_json();
            let back = JobSpec::from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(back, spec);
            assert_eq!(back.content_hash(), spec.content_hash());
        }
    }

    #[test]
    fn hash_is_stable_and_parameter_sensitive() {
        let a = sample_full_run();
        let b = sample_full_run();
        assert_eq!(a.content_hash(), b.content_hash());

        // One scheduler knob nudged → different hash.
        let mut cfg = RuntimeConfig::paper();
        cfg.control.scheduler.eta += 0.01;
        let c = JobSpec::FullRun {
            bench: BenchSpec {
                kind: BenchKind::Rotation3d,
                size: BenchSize::Small,
            },
            topology: SystemTopology::FlumenA,
            cfg,
        };
        assert_ne!(a.content_hash(), c.content_hash());

        // Different seed on a NoC job → different hash.
        let n1 = sample_noc();
        let n2 = JobSpec::NocPoint {
            net: NetSpec::Flumen { nodes: 16 },
            pattern: TrafficPattern::Shuffle,
            load: 0.25,
            cfg: RunConfig {
                seed: 7,
                ..RunConfig::default()
            },
        };
        assert_ne!(n1.content_hash(), n2.content_hash());
    }

    #[test]
    fn bench_specs_cover_all_benchmarks() {
        let specs = BenchSpec::all(BenchSize::Small);
        assert_eq!(specs.len(), 5);
        for s in &specs {
            assert_eq!(s.instantiate().name(), s.name());
        }
    }

    #[test]
    fn execute_noc_point_is_deterministic() {
        let spec = JobSpec::NocPoint {
            net: NetSpec::Ring { nodes: 8 },
            pattern: TrafficPattern::UniformRandom,
            load: 0.1,
            cfg: RunConfig {
                warmup: 100,
                measure: 500,
                ..RunConfig::default()
            },
        };
        let a = spec.execute();
        let b = spec.execute();
        assert_eq!(a.latency().avg_latency, b.latency().avg_latency);
        assert_eq!(a.latency().throughput, b.latency().throughput);
    }

    #[test]
    fn noc_stats_job_carries_counters_and_round_trips() {
        let spec = JobSpec::NocStats {
            net: NetSpec::Torus {
                width: 2,
                height: 2,
            },
            pattern: TrafficPattern::UniformRandom,
            load: 0.1,
            cfg: RunConfig {
                warmup: 100,
                measure: 500,
                ..RunConfig::default()
            },
        };
        let result = spec.execute();
        let p = result.noc_stats();
        assert!(p.stats.bit_hops > 0, "measurement window moved no bits");
        assert_eq!(p.latency.offered_load, 0.1);
        // The result (with its embedded NetStats) survives the cache's
        // JSON round trip bit-identically.
        let back =
            JobResult::from_json(&Json::parse(&result.to_json().to_canonical()).unwrap()).unwrap();
        assert_eq!(back.noc_stats().stats.bit_hops, p.stats.bit_hops);
        assert_eq!(
            back.noc_stats().latency.avg_latency.to_bits(),
            p.latency.avg_latency.to_bits()
        );
    }
}
