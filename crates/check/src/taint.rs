//! Determinism-taint propagation for `flumen-audit`.
//!
//! A function is **tainted** when its output can reach a bit-determinism
//! contract: the golden-grid benchmark results, sweep/serve result JSON,
//! or job content hashes. Taint starts at configured *roots*
//! (matched by fn-name prefix or by module path) and flows **callee-ward**
//! over the call graph of [`crate::index::WorkspaceIndex`]: if a tainted
//! function calls `f`, then `f` is tainted too, transitively. Everything
//! a root executes can perturb the root's bytes, so the audit lints
//! (`det-*` in [`crate::audit`]) fire inside any tainted body.
//!
//! Call resolution is name-based and deliberately conservative:
//!
//! * a method call `x.f(…)` taints *every* workspace fn named `f`
//!   (receiver types are unknown to a lexer-level pass);
//! * a path call `a::b::f(…)` taints the fns named `f` whose module path
//!   ends with the written qualifier (after normalising crate idents
//!   like `flumen_sweep` → `sweep`), falling back to all fns named `f`
//!   when no candidate matches — over-approximation, never under;
//! * `use` aliases recorded in the file's
//!   [`crate::index::FileIndex::use_edges`] are expanded first, so
//!   `use sweep::exec::run_plan as rp; rp()` still resolves.
//!
//! Modules listed in [`TaintConfig::exempt_modules`] never receive
//! taint (the bench timing harness reads wall clocks by design).

use crate::index::WorkspaceIndex;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// What seeds the taint and what never receives it.
#[derive(Debug, Clone)]
pub struct TaintConfig {
    /// Fn-name prefixes that are roots (`run_benchmark` matches
    /// `run_benchmark_suite`, …).
    pub root_fn_prefixes: Vec<String>,
    /// Exact fn names that are roots wherever they are defined
    /// (`content_hash`).
    pub root_fn_names: Vec<String>,
    /// Module paths whose every fn is a root (`sweep::exec`,
    /// `serve::exec`). Matches the module itself and submodules.
    pub root_modules: Vec<String>,
    /// Module paths that never receive taint.
    pub exempt_modules: Vec<String>,
}

impl TaintConfig {
    /// The Flumen workspace policy: everything reachable from the
    /// benchmark runners, the sweep/serve executors and the
    /// content-hash machinery is determinism-critical; the bench
    /// timing harness is wall-clock by design.
    pub fn flumen() -> Self {
        TaintConfig {
            root_fn_prefixes: vec!["run_benchmark".into()],
            root_fn_names: vec!["content_hash".into()],
            root_modules: vec![
                "sweep::exec".into(),
                "serve::exec".into(),
                "serve::server".into(),
                "serve::scenario".into(),
                "noc::fabric".into(),
            ],
            exempt_modules: vec!["bench".into()],
        }
    }
}

/// Result of propagation: which fns are tainted and why.
#[derive(Debug)]
pub struct TaintSet {
    /// `tainted[id]` ⇔ `index.fns[id]` is determinism-critical.
    pub tainted: Vec<bool>,
    /// For each tainted fn: the path of the root it is reachable from
    /// (first one discovered; roots point at themselves).
    pub reached_from: BTreeMap<usize, String>,
}

impl TaintSet {
    /// True when fn `id` is tainted.
    pub fn is_tainted(&self, id: usize) -> bool {
        self.tainted.get(id).copied().unwrap_or(false)
    }
}

fn module_matches(module: &str, list: &[String]) -> bool {
    list.iter()
        .any(|m| module == m || module.starts_with(&format!("{m}::")))
}

/// Normalises a path qualifier segment for suffix matching:
/// crate idents drop their `flumen`/`flumen_` prefix
/// (`flumen_sweep` → `sweep`, `flumen` → `core`), and the
/// relative-path keywords `crate`/`self`/`super` are erased (matching
/// then falls back to the remaining segments).
fn normalise_segment(seg: &str) -> Option<String> {
    match seg {
        "crate" | "self" | "super" | "std" | "core" | "alloc" => None,
        "flumen" => Some("core".to_string()),
        s => Some(s.strip_prefix("flumen_").unwrap_or(s).to_string()),
    }
}

/// Resolves one call site to candidate fn ids, given the qualifier
/// segments (callee name last) after `use`-alias expansion.
fn resolve_path(index: &WorkspaceIndex, segments: &[String]) -> Vec<usize> {
    let Some((name, quals)) = segments.split_last() else {
        return Vec::new();
    };
    let Some(cands) = index.by_name.get(name) else {
        return Vec::new();
    };
    let quals: Vec<String> = quals.iter().filter_map(|s| normalise_segment(s)).collect();
    if quals.is_empty() {
        return cands.clone();
    }
    let matched: Vec<usize> = cands
        .iter()
        .copied()
        .filter(|&id| {
            let module: Vec<&str> = index.fns[id].module.split("::").collect();
            module.len() >= quals.len()
                && module[module.len() - quals.len()..]
                    .iter()
                    .zip(&quals)
                    .all(|(a, b)| a == b)
        })
        .collect();
    if matched.is_empty() {
        // Qualifier names something outside the workspace (std, a type,
        // an enum) — fall back to every fn with the name, conservatively.
        cands.clone()
    } else {
        matched
    }
}

/// Expands a call site's segments through the defining file's `use`
/// aliases, then resolves to candidate callee ids.
pub(crate) fn resolve_call(
    index: &WorkspaceIndex,
    caller_file: usize,
    caller_module: &str,
    site: &crate::index::CallSite,
) -> Vec<usize> {
    if site.is_method {
        return index.by_name.get(&site.name).cloned().unwrap_or_default();
    }
    let edges = &index.files[caller_file].use_edges;
    let mut segments = site.segments.clone();
    if let Some(full) = edges.get(&segments[0]) {
        let mut expanded = full.clone();
        expanded.extend(segments.drain(1..));
        segments = expanded;
    } else if segments.len() == 1 {
        // Unqualified call with no `use` alias: an fn in the caller's
        // own module shadows same-named fns elsewhere (Rust scoping).
        if let Some(cands) = index.by_name.get(&segments[0]) {
            let local: Vec<usize> = cands
                .iter()
                .copied()
                .filter(|&id| index.fns[id].module == caller_module)
                .collect();
            if !local.is_empty() {
                return local;
            }
        }
    }
    resolve_path(index, &segments)
}

/// Propagates taint from the configured roots over the call graph.
pub fn propagate(index: &WorkspaceIndex, cfg: &TaintConfig) -> TaintSet {
    let n = index.fns.len();
    let mut tainted = vec![false; n];
    let mut reached_from: BTreeMap<usize, String> = BTreeMap::new();
    let mut queue: VecDeque<usize> = VecDeque::new();

    for (id, f) in index.fns.iter().enumerate() {
        if f.is_test || module_matches(&f.module, &cfg.exempt_modules) {
            continue;
        }
        let is_root = cfg
            .root_fn_prefixes
            .iter()
            .any(|p| f.name.starts_with(p.as_str()))
            || cfg.root_fn_names.iter().any(|r| &f.name == r)
            || module_matches(&f.module, &cfg.root_modules);
        if is_root {
            tainted[id] = true;
            reached_from.insert(id, f.path.clone());
            queue.push_back(id);
        }
    }

    // Pre-resolve each fn's callee set once; BFS over the result.
    let mut callees: Vec<Option<BTreeSet<usize>>> = vec![None; n];
    while let Some(id) = queue.pop_front() {
        let root = reached_from.get(&id).cloned().unwrap_or_default();
        if callees[id].is_none() {
            let f = &index.fns[id];
            let mut set = BTreeSet::new();
            for site in &f.calls {
                set.extend(resolve_call(index, f.file, &f.module, site));
            }
            callees[id] = Some(set);
        }
        for &callee in callees[id].as_ref().unwrap() {
            if tainted[callee] {
                continue;
            }
            let cf = &index.fns[callee];
            if cf.is_test || module_matches(&cf.module, &cfg.exempt_modules) {
                continue;
            }
            tainted[callee] = true;
            reached_from.insert(callee, root.clone());
            queue.push_back(callee);
        }
    }

    TaintSet {
        tainted,
        reached_from,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{SourceFile, WorkspaceIndex};
    use std::path::PathBuf;

    fn build(sources: &[(&str, &str)]) -> WorkspaceIndex {
        let files: Vec<SourceFile> = sources
            .iter()
            .map(|(m, s)| SourceFile {
                module: m.to_string(),
                file: PathBuf::from(format!("{}.rs", m.replace("::", "/"))),
                src: s.to_string(),
            })
            .collect();
        WorkspaceIndex::build(&files)
    }

    fn tainted_names(ix: &WorkspaceIndex, ts: &TaintSet) -> Vec<String> {
        ix.fns
            .iter()
            .enumerate()
            .filter(|(id, _)| ts.is_tainted(*id))
            .map(|(_, f)| f.path.clone())
            .collect()
    }

    #[test]
    fn taint_crosses_crates_transitively() {
        // Synthetic two-crate workspace: the sweep executor calls into
        // a helper crate, which calls deeper; an unrelated fn stays
        // clean.
        let ix = build(&[
            (
                "sweep::exec",
                "pub fn run_plan() { flumen_model::evaluate(); }\n",
            ),
            (
                "model",
                "pub fn evaluate() { inner_step(); }\n\
                 fn inner_step() {}\n\
                 pub fn unrelated_tool() {}\n",
            ),
        ]);
        let ts = propagate(&ix, &TaintConfig::flumen());
        let t = tainted_names(&ix, &ts);
        assert!(t.contains(&"sweep::exec::run_plan".to_string()));
        assert!(t.contains(&"model::evaluate".to_string()));
        assert!(t.contains(&"model::inner_step".to_string()));
        assert!(!t.contains(&"model::unrelated_tool".to_string()));
        // Provenance points back at the root.
        let eval_id = ix.fns.iter().position(|f| f.name == "evaluate").unwrap();
        assert_eq!(
            ts.reached_from.get(&eval_id).unwrap(),
            "sweep::exec::run_plan"
        );
    }

    #[test]
    fn method_calls_taint_all_same_named_fns() {
        let ix = build(&[
            ("serve::exec", "pub fn replay() { table.lookup(1); }\n"),
            (
                "payload",
                "impl Table { pub fn lookup(&self, k: u64) {} }\n",
            ),
        ]);
        let ts = propagate(&ix, &TaintConfig::flumen());
        assert!(tainted_names(&ix, &ts).contains(&"payload::lookup".to_string()));
    }

    #[test]
    fn use_aliases_are_expanded() {
        let ix = build(&[
            (
                "sweep::exec",
                "use flumen_model::evaluate as ev;\npub fn run_plan() { ev(); }\n",
            ),
            (
                "model",
                "pub fn evaluate() {}\npub fn evaluate_other() {}\n",
            ),
        ]);
        let ts = propagate(&ix, &TaintConfig::flumen());
        let t = tainted_names(&ix, &ts);
        assert!(t.contains(&"model::evaluate".to_string()));
        assert!(!t.contains(&"model::evaluate_other".to_string()));
    }

    #[test]
    fn qualified_calls_prefer_matching_module() {
        let ix = build(&[
            (
                "system::engine",
                "pub fn run_benchmark_grid() { fabric::program(); }\n",
            ),
            ("photonics::fabric", "pub fn program() {}\n"),
            ("other::fabric2", "pub fn program() {}\n"),
        ]);
        let ts = propagate(&ix, &TaintConfig::flumen());
        let t = tainted_names(&ix, &ts);
        assert!(t.contains(&"photonics::fabric::program".to_string()));
        assert!(
            !t.contains(&"other::fabric2::program".to_string()),
            "qualifier `fabric::` pins the candidate set"
        );
    }

    #[test]
    fn exempt_modules_and_tests_never_taint() {
        let ix = build(&[
            ("sweep::exec", "pub fn run_plan() { measure(); }\n"),
            (
                "bench::timing",
                "pub fn measure() { deeper(); }\nfn deeper() {}\n",
            ),
        ]);
        let ts = propagate(&ix, &TaintConfig::flumen());
        let t = tainted_names(&ix, &ts);
        assert!(!t.iter().any(|p| p.starts_with("bench::")));
    }

    #[test]
    fn content_hash_roots_fire_by_name() {
        let ix = build(&[(
            "sweep::job",
            "pub fn content_hash(&self) { self.canonical(); }\nfn canonical(&self) {}\n",
        )]);
        let ts = propagate(&ix, &TaintConfig::flumen());
        let t = tainted_names(&ix, &ts);
        assert!(t.contains(&"sweep::job::content_hash".to_string()));
        assert!(t.contains(&"sweep::job::canonical".to_string()));
    }
}
