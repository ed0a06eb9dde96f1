//! Canonical-form tests for the workspace's configuration and result
//! JSON bridges.
//!
//! The `ToJson`/`FromJson` impls themselves live next to the types they
//! serialize (e.g. `RuntimeConfig` in `flumen::runtime`, `NetStats` in
//! `flumen_noc::stats`). What this module pins down is the property the *sweep* layer
//! depends on: those bridges define the canonical serialized form of
//! every parameter that feeds a job's content hash, so any field change —
//! however small — produces a different hash and therefore a cache miss.

#[cfg(test)]
mod tests {
    use crate::json::{FromJson, Json, ToJson};
    use flumen::scheduler::SchedulerParams;
    use flumen::{RuntimeConfig, SystemTopology};
    use flumen_noc::harness::LatencyPoint;
    use flumen_noc::traffic::TrafficPattern;

    #[test]
    fn runtime_config_round_trips() {
        let cfg = RuntimeConfig::paper();
        let j = cfg.to_json();
        let back = RuntimeConfig::from_json(&j).unwrap();
        assert_eq!(back.system.cores, cfg.system.cores);
        assert_eq!(back.control.fabric_n, cfg.control.fabric_n);
        assert_eq!(back.control.scheduler.eta, cfg.control.scheduler.eta);
        assert_eq!(back.energy, cfg.energy);
        assert_eq!(back.max_cycles, cfg.max_cycles);
        // And the canonical text itself is a fixed point.
        let text = j.to_canonical();
        assert_eq!(back.to_json().to_canonical(), text);
    }

    #[test]
    fn topology_and_pattern_names_round_trip() {
        for t in SystemTopology::all() {
            assert_eq!(SystemTopology::from_json(&t.to_json()).unwrap(), t);
        }
        for p in TrafficPattern::all() {
            assert_eq!(TrafficPattern::from_json(&p.to_json()).unwrap(), p);
        }
        assert!(SystemTopology::from_json(&Json::Str("torus".into())).is_err());
    }

    #[test]
    fn missing_field_error_names_the_path() {
        let mut j = SchedulerParams::default().to_json();
        if let Json::Obj(map) = &mut j {
            map.remove("zeta");
        }
        let err = SchedulerParams::from_json(&j).unwrap_err();
        assert!(err.0.contains("SchedulerParams.zeta"), "got: {}", err.0);
    }

    #[test]
    fn latency_point_preserves_saturation_infinity() {
        let pt = LatencyPoint {
            offered_load: 0.45,
            avg_latency: f64::INFINITY,
            throughput: 0.31,
            link_utilization: 0.97,
            saturated: true,
        };
        let text = pt.to_json().to_canonical();
        let back = LatencyPoint::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert!(back.avg_latency.is_infinite());
        assert!(back.saturated);
    }
}
