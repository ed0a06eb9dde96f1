//! Self-application: `flumen-audit` over the real workspace must report
//! zero findings — the same gate the CI job enforces.

use flumen_check::audit;
use std::path::Path;

fn root() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn workspace_is_clean_under_deny() {
    let findings = flumen_check::audit_workspace(&root()).expect("workspace walk succeeds");
    assert!(
        findings.is_empty(),
        "flumen-audit found {} finding(s):\n{}",
        findings.len(),
        findings
            .iter()
            .map(|d| format!("  {d}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn taint_reaches_every_executor_crate() {
    // The audit's power is the cross-crate reach: spot-check that the
    // benchmark runners really pull the core engine and photonic fabric
    // into the tainted set (a planted hash iteration there would fire).
    let sources = flumen_check::collect_workspace_sources(&root()).expect("sources read");
    let ix = flumen_check::index::WorkspaceIndex::build(&sources);
    let ts = flumen_check::taint::propagate(&ix, &flumen_check::taint::TaintConfig::flumen());
    let tainted_modules: std::collections::BTreeSet<&str> = ix
        .fns
        .iter()
        .enumerate()
        .filter(|(id, _)| ts.is_tainted(*id))
        .map(|(_, f)| f.module.as_str())
        .collect();
    for needle in [
        "system::engine",
        "photonics::fabric",
        "sweep::exec",
        "serve::exec",
    ] {
        assert!(
            tainted_modules.iter().any(|m| m.starts_with(needle)),
            "expected taint to reach `{needle}`; tainted modules: {tainted_modules:?}"
        );
    }
}

#[test]
fn a_planted_violation_would_be_caught() {
    // The clean self-check above is only meaningful if the pass fires
    // on real regressions in workspace-shaped code.
    let diags = flumen_check::audit_snippets(&[(
        "system::engine",
        r#"
        use std::collections::HashMap;
        pub fn run_benchmark_bad() {
            let pending: HashMap<u64, u64> = HashMap::new();
            for (id, v) in pending.iter() {
                let _ = (id, v);
            }
        }
        "#,
    )]);
    assert!(
        diags
            .iter()
            .any(|d| d.diag.lint == flumen_check::Lint::DetHashIter),
        "planted hash iteration was not caught: {diags:?}"
    );
}

#[test]
fn json_artifact_renders_findings() {
    let diags = flumen_check::audit_snippets(&[(
        "sweep::exec",
        "pub fn run_plan() { let _t = std::time::Instant::now(); }\n",
    )]);
    assert_eq!(diags.len(), 1);
    let json = audit::render_json(&diags);
    assert!(json.contains("\"lint\": \"det-wall-clock\""));
    assert!(json.contains("\"file\": \"sweep/exec.rs\""));
}
