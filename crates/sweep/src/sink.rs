//! Result sinks: JSONL dumps, trace files and the run manifest.
//!
//! The manifest (`manifest.jsonl` next to the cache) appends one line per
//! sweep invocation — job count, hit/miss split, wall time — so a data
//! directory records how its contents were produced and a re-run can be
//! audited for cache effectiveness.

use crate::exec::{SweepPlan, SweepReport};
use crate::job::JobSpec;
use crate::json::{Json, ToJson};
use crate::metrics::unit_metrics;
use std::fs;
use std::io::Write as _;
use std::path::Path;

/// Writes one JSON object per line: `{label, hash, cached, wall_ms,
/// result}` for every job in the report, in plan order. Full-system runs
/// additionally carry a `metrics` object with unit-suffixed headline
/// keys (`latency_ns`, `energy_pj`, `loss_db` — see
/// [`crate::metrics::unit_metrics`]) and a top-level `truncated` flag so
/// a run that hit its cycle budget is visible without digging into the
/// result payload.
///
/// # Panics
///
/// Panics on I/O failure.
pub fn write_results_jsonl(path: &Path, plan: &SweepPlan, report: &SweepReport) {
    let mut out = String::new();
    for ((spec, rec), result) in plan.jobs().iter().zip(&report.records).zip(&report.results) {
        let mut fields = vec![
            ("label", Json::Str(rec.label.clone())),
            ("hash", Json::Str(rec.hash.clone())),
            ("cached", rec.cached.to_json()),
            ("wall_ms", rec.wall_ms.to_json()),
            ("result", result.to_json()),
        ];
        if let JobSpec::FullRun { cfg, .. } = spec {
            fields.push(("metrics", unit_metrics(result.full_run(), cfg)));
            fields.push(("truncated", result.full_run().truncated.to_json()));
        }
        let line = Json::obj(fields);
        out.push_str(&line.to_canonical());
        out.push('\n');
    }
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent).expect("create sink dir");
    }
    fs::write(path, out).expect("write results jsonl");
}

/// Writes a recorded event stream twice: Chrome-trace JSON (open in
/// Perfetto / `chrome://tracing`) at `<stem>.trace.json` and one event
/// per line at `<stem>.trace.jsonl`. Returns the two paths.
///
/// Pass any stream drained from a `flumen_trace::RecordingTracer`.
///
/// # Panics
///
/// Panics on I/O failure.
pub fn write_trace_files(
    dir: &Path,
    stem: &str,
    events: &[flumen_trace::TraceEvent],
) -> (std::path::PathBuf, std::path::PathBuf) {
    fs::create_dir_all(dir).expect("create trace dir");
    let chrome = dir.join(format!("{stem}.trace.json"));
    fs::write(&chrome, flumen_trace::chrome::to_chrome_json(events)).expect("write chrome trace");
    let jsonl = dir.join(format!("{stem}.trace.jsonl"));
    let mut f = fs::File::create(&jsonl).expect("create trace jsonl");
    flumen_trace::jsonl::write_jsonl(&mut f, events).expect("write trace jsonl");
    (chrome, jsonl)
}

/// Appends one summary line for this sweep to `<dir>/manifest.jsonl`.
///
/// # Panics
///
/// Panics on I/O failure.
pub fn append_manifest(dir: &Path, name: &str, report: &SweepReport) {
    fs::create_dir_all(dir).expect("create manifest dir");
    let line = Json::obj([
        ("sweep", Json::Str(name.to_string())),
        ("jobs", report.records.len().to_json()),
        ("cache_hits", report.cache_hits().to_json()),
        ("executed", report.executed().to_json()),
        ("wall_ms", report.wall_ms.to_json()),
        (
            "job_hashes",
            Json::Arr(
                report
                    .records
                    .iter()
                    .map(|r| Json::Str(r.hash.clone()))
                    .collect(),
            ),
        ),
    ]);
    let mut f = fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(dir.join("manifest.jsonl"))
        .expect("open manifest");
    writeln!(f, "{}", line.to_canonical()).expect("append manifest");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{run_plan, SweepOptions, SweepPlan};
    use crate::job::{JobSpec, NetSpec};
    use flumen_noc::harness::RunConfig;
    use flumen_noc::traffic::TrafficPattern;

    #[test]
    fn sinks_write_plan_ordered_lines() {
        let base = std::env::temp_dir().join(format!("flumen-sweep-sink-{}", std::process::id()));
        let _ = fs::remove_dir_all(&base);

        let mut plan = SweepPlan::new();
        for seed in [1u64, 2] {
            plan.push(JobSpec::NocPoint {
                net: NetSpec::Ring { nodes: 8 },
                pattern: TrafficPattern::Shuffle,
                load: 0.05,
                cfg: RunConfig {
                    warmup: 50,
                    measure: 200,
                    seed,
                    ..RunConfig::default()
                },
            });
        }
        let report = run_plan(&plan, &SweepOptions::serial_in(base.join("cache")));

        let jsonl = base.join("out.jsonl");
        write_results_jsonl(&jsonl, &plan, &report);
        let text = fs::read_to_string(&jsonl).unwrap();
        assert_eq!(text.lines().count(), 2);
        for (line, rec) in text.lines().zip(&report.records) {
            let j = Json::parse(line).unwrap();
            assert_eq!(j.get("hash").unwrap().as_str().unwrap(), rec.hash);
        }

        append_manifest(&base, "test-sweep", &report);
        let manifest = fs::read_to_string(base.join("manifest.jsonl")).unwrap();
        let j = Json::parse(manifest.lines().next().unwrap()).unwrap();
        assert_eq!(j.get("jobs").unwrap().as_usize().unwrap(), 2);

        fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn trace_sink_writes_both_formats() {
        use flumen_trace::{EventKind, TraceCategory, TraceEvent};
        let base = std::env::temp_dir().join(format!("flumen-sweep-trace-{}", std::process::id()));
        let _ = fs::remove_dir_all(&base);

        let events = [
            TraceEvent::new(TraceCategory::Sweep, "job", EventKind::SpanBegin, 0, 0).with_id(0),
            TraceEvent::instant(TraceCategory::System, "checkpoint", 3, 0),
            TraceEvent::new(TraceCategory::Sweep, "job", EventKind::SpanEnd, 5, 0).with_id(0),
        ];
        let (chrome, jsonl) = write_trace_files(&base, "sweep", &events);
        let cj = fs::read_to_string(&chrome).unwrap();
        assert!(cj.starts_with('['), "{cj}");
        assert!(
            cj.contains("\"ph\":\"B\"") && cj.contains("\"ph\":\"E\""),
            "{cj}"
        );
        assert_eq!(fs::read_to_string(&jsonl).unwrap().lines().count(), 3);

        fs::remove_dir_all(&base).unwrap();
    }
}
