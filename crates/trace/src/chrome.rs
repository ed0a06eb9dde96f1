//! Chrome-trace-format exporter.
//!
//! Produces the JSON array flavor of the [Trace Event Format] that both
//! `chrome://tracing` and [Perfetto](https://ui.perfetto.dev) load
//! directly. Each [`crate::TraceCategory`] becomes a process (named via
//! `process_name` metadata) and each track a thread within it, so
//! scheduler, NoC, and core events land on visually distinct track
//! groups.
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use crate::event::{EventKind, TraceCategory, TraceEvent};
use std::fmt::Write as _;

fn escape_json(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

fn fmt_f64(v: f64, out: &mut String) {
    if v.is_finite() {
        if v == v.trunc() && v.abs() < 1e15 {
            let _ = write!(out, "{}", v as i64);
        } else {
            let _ = write!(out, "{v}");
        }
    } else {
        // The trace-event format has no literal for non-finite numbers.
        out.push_str("null");
    }
}

/// Chrome phase letter for an event kind.
fn phase(kind: &EventKind) -> char {
    match kind {
        EventKind::SpanBegin => 'B',
        EventKind::SpanEnd => 'E',
        EventKind::AsyncBegin => 'b',
        EventKind::AsyncEnd => 'e',
        EventKind::Instant => 'i',
        EventKind::Counter(_) => 'C',
    }
}

fn pid(cat: TraceCategory) -> u32 {
    TraceCategory::all().iter().position(|c| *c == cat).unwrap() as u32 + 1
}

fn push_event(ev: &TraceEvent, out: &mut String) {
    out.push_str("{\"name\":\"");
    escape_json(&ev.name, out);
    let _ = write!(
        out,
        "\",\"cat\":\"{}\",\"ph\":\"{}\",\"ts\":{},\"pid\":{},\"tid\":{}",
        ev.category.name(),
        phase(&ev.kind),
        ev.ts,
        pid(ev.category),
        ev.track
    );
    match ev.kind {
        EventKind::AsyncBegin | EventKind::AsyncEnd => {
            let _ = write!(out, ",\"id\":\"{:#x}\"", ev.id);
        }
        EventKind::Instant => out.push_str(",\"s\":\"t\""),
        _ => {}
    }
    if let EventKind::Counter(v) = ev.kind {
        out.push_str(",\"args\":{\"value\":");
        fmt_f64(v, out);
        out.push('}');
    } else if !ev.args.is_empty() {
        out.push_str(",\"args\":{");
        for (i, (k, v)) in ev.args.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{k}\":");
            fmt_f64(*v, out);
        }
        out.push('}');
    }
    out.push('}');
}

/// Renders events as a Chrome-trace JSON string.
///
/// Emits one `process_name` metadata record per category that appears in
/// the stream, then every event in input order.
pub fn to_chrome_json(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 96 + 512);
    out.push('[');
    let mut first = true;
    for cat in TraceCategory::all() {
        if events.iter().any(|e| e.category == cat) {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"tid\":0,\
                 \"args\":{{\"name\":\"{}\"}}}}",
                pid(cat),
                cat.name()
            );
        }
    }
    for ev in events {
        if !first {
            out.push(',');
        }
        first = false;
        push_event(ev, &mut out);
    }
    out.push_str("]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<TraceEvent> {
        vec![
            TraceEvent::new(TraceCategory::Noc, "pkt", EventKind::AsyncBegin, 1, 2).with_id(7),
            TraceEvent::new(TraceCategory::Noc, "pkt", EventKind::AsyncEnd, 5, 3)
                .with_id(7)
                .with_arg("lat", 4.0),
            TraceEvent::counter(TraceCategory::System, "cache_miss", 10, 0, 0.25),
            TraceEvent::instant(TraceCategory::Scheduler, "reject", 11, 1),
        ]
    }

    #[test]
    fn output_is_valid_json_array() {
        let s = to_chrome_json(&sample());
        assert!(s.starts_with('[') && s.trim_end().ends_with(']'));
        // Balanced braces is a cheap structural check without a parser.
        let opens = s.matches('{').count();
        let closes = s.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn categories_get_distinct_pids_and_names() {
        let s = to_chrome_json(&sample());
        assert!(s.contains("\"args\":{\"name\":\"noc\"}"));
        assert!(s.contains("\"args\":{\"name\":\"system\"}"));
        assert!(s.contains("\"args\":{\"name\":\"scheduler\"}"));
        // Unused categories emit no metadata.
        assert!(!s.contains("\"name\":\"sweep\""));
        assert_ne!(pid(TraceCategory::Noc), pid(TraceCategory::Scheduler));
    }

    #[test]
    fn phases_and_ids_render() {
        let s = to_chrome_json(&sample());
        assert!(s.contains("\"ph\":\"b\""));
        assert!(s.contains("\"ph\":\"e\""));
        assert!(s.contains("\"ph\":\"C\""));
        assert!(s.contains("\"ph\":\"i\""));
        assert!(s.contains("\"id\":\"0x7\""));
        assert!(s.contains("\"args\":{\"value\":0.25}"));
        assert!(s.contains("\"args\":{\"lat\":4}"));
    }

    #[test]
    fn names_are_escaped() {
        let evs = vec![TraceEvent::instant(
            TraceCategory::Sweep,
            "job \"a\\b\"".to_string(),
            0,
            0,
        )];
        let s = to_chrome_json(&evs);
        assert!(s.contains(r#"job \"a\\b\""#));
    }

    #[test]
    fn empty_stream_renders_empty_array() {
        assert_eq!(to_chrome_json(&[]).trim(), "[]");
    }
}
