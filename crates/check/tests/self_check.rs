//! Self-application: the real workspace must be clean under `--deny`.
//!
//! This is the regression net the CI job relies on — any new panic in a
//! hot path, raw unit literal, bare time cast or unregistered trace name
//! anywhere in `crates/*/src` fails this test (and the `--deny` CI job)
//! until it is fixed or carries a justified allow comment.

use std::path::Path;

#[test]
fn workspace_is_clean_under_deny() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let diags = flumen_check::check_workspace(&root).expect("workspace walk succeeds");
    assert!(
        diags.is_empty(),
        "flumen-check found {} finding(s):\n{}",
        diags.len(),
        diags
            .iter()
            .map(|d| format!("  {d}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn trace_registry_is_parsed_from_source() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let names = flumen_check::trace_registry(&root).expect("registry parses");
    assert!(
        names.iter().any(|n| n == "pkt") && names.iter().any(|n| n == "reconfig"),
        "registry looks wrong: {names:?}"
    );
    assert!(names.len() >= 10, "suspiciously small: {names:?}");
}

/// The registry's other direction: every registered name appears as a
/// string literal in production code outside the registry itself, so a
/// name cannot outlive its last emitter. Names returned as strings, such
/// as `AdmissionOutcome::event_name`'s, count as uses.
#[test]
fn every_registered_event_name_is_used() {
    use flumen_check::lexer::{lex, TokKind};
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let names = flumen_check::trace_registry(&root).expect("registry parses");
    let mut literals = std::collections::BTreeSet::new();
    for s in flumen_check::collect_workspace_sources(&root).expect("workspace walk succeeds") {
        if s.file.ends_with("trace/src/event.rs") {
            continue;
        }
        let (toks, _) = lex(&s.src);
        let test = flumen_check::lints::test_mask(&toks);
        for (tok, is_test) in toks.into_iter().zip(test) {
            if let (TokKind::Str(lit), false) = (tok.kind, is_test) {
                literals.insert(lit);
            }
        }
    }
    let unused: Vec<&String> = names.iter().filter(|n| !literals.contains(*n)).collect();
    assert!(
        unused.is_empty(),
        "registered but never named in production code: {unused:?}"
    );
}

#[test]
fn a_planted_violation_would_be_caught() {
    // Sanity-check that the clean result above is meaningful: the same
    // policy applied to a deliberately bad hot-path file does fire.
    let cfg = {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut cfg = flumen_check::CheckConfig::flumen();
        cfg.trace_registry = flumen_check::trace_registry(&root).expect("registry parses");
        cfg
    };
    let bad = r#"
        fn step(&mut self, cycles: u64) {
            let pkt = self.q.pop_front().unwrap();
            let t = cycles as f64;
            tracer.emit(|| TraceEvent::instant(TraceCategory::Noc, "not_registered", 0, 0));
        }
    "#;
    let diags = flumen_check::check_source("noc::routed", bad, &cfg);
    assert_eq!(diags.len(), 3, "{diags:?}");
}

/// Every module path the lint and taint policies name must still exist:
/// a deleted or renamed module would otherwise empty a lint's scope
/// without any finding to show for it.
#[test]
fn policy_module_paths_name_real_modules() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let modules: Vec<String> = flumen_check::collect_workspace_sources(&root)
        .expect("workspace walk succeeds")
        .into_iter()
        .map(|s| s.module)
        .collect();
    let check = flumen_check::CheckConfig::flumen();
    let taint = flumen_check::taint::TaintConfig::flumen();
    let lists = [
        ("hot_paths", &check.hot_paths),
        ("unit_literal_exempt", &check.unit_literal_exempt),
        ("cast_exempt", &check.cast_exempt),
        ("root_modules", &taint.root_modules),
        ("exempt_modules", &taint.exempt_modules),
    ];
    for (list, paths) in lists {
        for path in paths {
            let sub = format!("{path}::");
            assert!(
                modules.iter().any(|m| m == path || m.starts_with(&sub)),
                "{list} names `{path}`, which matches no workspace module"
            );
        }
    }
    assert!(
        check.hot_paths.iter().any(|p| p == "system::engine"),
        "the engine's cycle loop must stay a hot path"
    );
}
