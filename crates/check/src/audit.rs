//! The `flumen-audit` lint pass: determinism lints over taint-marked
//! functions.
//!
//! The lints fire only inside functions the [`crate::taint`] pass
//! marked as reachable from a bit-determinism root:
//!
//! * **det-hash-iter** — iteration over a `HashMap`/`HashSet`
//!   (`.iter()`, `.keys()`, `.values()`, `.drain()`, bare `for … in
//!   map`); keyed lookup (`get`/`insert`/`entry`) stays allowed.
//! * **det-unordered-reduction** — `.sum()`/`.product()`/`.fold()`/
//!   `.reduce()` chained off a hash container, where float accumulation
//!   order follows hash order.
//! * **det-wall-clock** — `Instant::now()` / `SystemTime::now()`.
//! * **det-unseeded-rng** — `thread_rng()`, `from_entropy()`,
//!   `rand::random()`, `RandomState::new()`.
//! * **det-ambient-id** — `thread::current()` or a pointer address
//!   laundered into an integer (`.as_ptr() as usize`).
//!
//! Suppression reuses the `// flumen-check: allow(<lint>)` machinery;
//! findings can also be parked in a committed baseline file
//! (see [`load_baseline`] / [`partition_baseline`]).

use crate::index::{CallSite, FileIndex, FnDef, WorkspaceIndex};
use crate::lexer::TokKind;
use crate::lints::{self, Diagnostic, Lint};
use crate::taint::{self, TaintConfig, TaintSet};
use crate::FileDiagnostic;
use std::collections::BTreeSet;
use std::path::Path;

/// Hash-container methods that expose iteration order. Keyed access
/// (`get`, `insert`, `remove`, `entry`, `contains_key`, `len`) is fine.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "into_keys",
    "into_values",
    "drain",
    "retain",
];

/// Order-sensitive reduction adapters.
const REDUCTIONS: &[&str] = &["sum", "product", "fold", "reduce"];

/// Runs the full audit over a built index. Diagnostics are sorted by
/// file then line; allow directives are already applied.
pub fn audit_index(index: &WorkspaceIndex, cfg: &TaintConfig) -> Vec<FileDiagnostic> {
    let taint = taint::propagate(index, cfg);
    let mut out: Vec<FileDiagnostic> = Vec::new();

    // Per-file allow directives (and malformed-directive findings).
    let mut allows: Vec<Vec<(u32, Lint)>> = Vec::with_capacity(index.files.len());
    for (fi, file) in index.files.iter().enumerate() {
        let (a, bad) = lints::parse_allows(&file.comments);
        allows.push(a);
        out.extend(bad.into_iter().map(|diag| FileDiagnostic {
            file: index.files[fi].file.clone(),
            diag,
        }));
    }

    for (id, f) in index.fns.iter().enumerate() {
        if f.is_test || !taint.is_tainted(id) {
            continue;
        }
        let file = &index.files[f.file];
        det_lints(&taint, id, f, file, &mut |diag: Diagnostic| {
            out.push(FileDiagnostic {
                file: file.file.clone(),
                diag,
            })
        });
    }

    // Apply allow directives (same or directly preceding line), then
    // order deterministically.
    out.retain(|fd| {
        let Some(fi) = index.files.iter().position(|f| f.file == fd.file) else {
            return true;
        };
        !allows[fi].iter().any(|(line, lint)| {
            *lint == fd.diag.lint && (*line == fd.diag.line || *line + 1 == fd.diag.line)
        })
    });
    out.sort_by(|a, b| {
        (&a.file, a.diag.line, a.diag.lint.name()).cmp(&(&b.file, b.diag.line, b.diag.lint.name()))
    });
    out
}

fn ident_at(file: &FileIndex, i: usize) -> Option<&str> {
    match file.toks.get(i).map(|t| &t.kind) {
        Some(TokKind::Ident(s)) => Some(s.as_str()),
        _ => None,
    }
}

fn punct_at(file: &FileIndex, i: usize, c: char) -> bool {
    matches!(file.toks.get(i).map(|t| &t.kind), Some(TokKind::Punct(p)) if *p == c)
}

/// Is the direct receiver of the method call at `site` a hash
/// container? (`map.iter()`, `self.iter()` in a hash impl, or a chained
/// base like `self.cache.keys()`.)
fn receiver_is_hash(f: &FnDef, file: &FileIndex, site: &CallSite) -> Option<String> {
    if !site.is_method || site.tok < 2 {
        return None;
    }
    let recv = site.tok - 2;
    match ident_at(file, recv) {
        Some("self") => {
            if f.self_is_hash {
                Some("self".to_string())
            } else {
                None
            }
        }
        Some(name) => {
            // `self.field.iter()` — the field name is at `recv`.
            if file.hash_names.contains(name) {
                Some(name.to_string())
            } else {
                None
            }
        }
        _ => None,
    }
}

/// Walks a method chain backwards from the `.` before token `dot`,
/// returning the base identifier token index (`map` in
/// `map.values().copied().sum()`), or `None` when the chain starts from
/// a call or literal.
fn chain_base(file: &FileIndex, mut dot: usize) -> Option<usize> {
    loop {
        if dot == 0 {
            return None;
        }
        let j = dot - 1;
        match file.toks.get(j).map(|t| &t.kind) {
            Some(TokKind::Punct(')')) => {
                let open = rev_matching(file, j, '(', ')')?;
                if open == 0 {
                    return None;
                }
                let name = open - 1;
                if ident_at(file, name).is_some() {
                    if name >= 1 && punct_at(file, name - 1, '.') {
                        dot = name - 1;
                    } else {
                        return Some(name);
                    }
                } else {
                    return None;
                }
            }
            Some(TokKind::Ident(_)) => {
                if j >= 1 && punct_at(file, j - 1, '.') {
                    dot = j - 1;
                } else {
                    return Some(j);
                }
            }
            _ => return None,
        }
    }
}

/// Reverse balanced scan: `close_idx` is on a `close`; returns the
/// index of the matching `open`.
fn rev_matching(file: &FileIndex, close_idx: usize, open: char, close: char) -> Option<usize> {
    let mut depth = 0usize;
    let mut j = close_idx;
    loop {
        match file.toks.get(j).map(|t| &t.kind) {
            Some(TokKind::Punct(c)) if *c == close => depth += 1,
            Some(TokKind::Punct(c)) if *c == open => {
                depth -= 1;
                if depth == 0 {
                    return Some(j);
                }
            }
            _ => {}
        }
        if j == 0 {
            return None;
        }
        j -= 1;
    }
}

/// The five determinism lints, applied to one tainted fn body.
fn det_lints(
    taint: &TaintSet,
    id: usize,
    f: &FnDef,
    file: &FileIndex,
    push: &mut dyn FnMut(Diagnostic),
) {
    let root = taint
        .reached_from
        .get(&id)
        .cloned()
        .unwrap_or_else(|| f.path.clone());
    let provenance = if root == f.path {
        "a determinism root".to_string()
    } else {
        format!("reached from `{root}`")
    };

    for site in &f.calls {
        // det-hash-iter -------------------------------------------------
        if site.is_method && ITER_METHODS.contains(&site.name.as_str()) {
            if let Some(recv) = receiver_is_hash(f, file, site) {
                push(Diagnostic {
                    lint: Lint::DetHashIter,
                    line: site.line,
                    message: format!(
                        "iteration over hash container `{recv}` in `{}` ({provenance}); \
                         hash order is nondeterministic — use BTreeMap/BTreeSet or sort \
                         before the order can escape",
                        f.path
                    ),
                });
            }
        }
        // det-unordered-reduction ---------------------------------------
        if site.is_method && REDUCTIONS.contains(&site.name.as_str()) && site.tok >= 1 {
            if let Some(base) = chain_base(file, site.tok - 1) {
                let hash_base = match ident_at(file, base) {
                    Some("self") => f.self_is_hash,
                    Some(name) => file.hash_names.contains(name),
                    None => false,
                };
                if hash_base {
                    push(Diagnostic {
                        lint: Lint::DetUnorderedReduction,
                        line: site.line,
                        message: format!(
                            "`.{}(…)` reduces a hash-ordered iterator in `{}` ({provenance}); \
                             float accumulation order follows hash order — collect and sort \
                             first",
                            site.name, f.path
                        ),
                    });
                }
            }
        }
        // det-wall-clock ------------------------------------------------
        if site.name == "now"
            && site
                .segments
                .iter()
                .any(|s| s == "Instant" || s == "SystemTime")
        {
            push(Diagnostic {
                lint: Lint::DetWallClock,
                line: site.line,
                message: format!(
                    "`{}::now()` in `{}` ({provenance}); wall-clock reads must not feed \
                     determinism-checked results",
                    site.segments[site.segments.len() - 2],
                    f.path
                ),
            });
        }
        // det-unseeded-rng ----------------------------------------------
        let rng = matches!(site.name.as_str(), "thread_rng" | "from_entropy")
            || (site.name == "new" && site.segments.iter().any(|s| s == "RandomState"))
            || (site.name == "random" && site.segments.first().is_some_and(|s| s == "rand"));
        if rng {
            push(Diagnostic {
                lint: Lint::DetUnseededRng,
                line: site.line,
                message: format!(
                    "unseeded / thread-local randomness `{}` in `{}` ({provenance}); derive \
                     all randomness from the run seed",
                    site.segments.join("::"),
                    f.path
                ),
            });
        }
        // det-ambient-id ------------------------------------------------
        if site.name == "current" && site.segments.iter().any(|s| s == "thread") {
            push(Diagnostic {
                lint: Lint::DetAmbientId,
                line: site.line,
                message: format!(
                    "`thread::current()` in `{}` ({provenance}); thread identity varies \
                     run to run",
                    f.path
                ),
            });
        }
        if site.is_method && matches!(site.name.as_str(), "as_ptr" | "as_mut_ptr") {
            // `.as_ptr() as usize` — pointer address escaping to an int.
            let close = lints::skip_balanced(&file.toks, site.tok + 1, '(', ')');
            if ident_at(file, close) == Some("as")
                && matches!(
                    ident_at(file, close + 1),
                    Some("usize") | Some("u64") | Some("isize") | Some("i64")
                )
            {
                push(Diagnostic {
                    lint: Lint::DetAmbientId,
                    line: site.line,
                    message: format!(
                        "pointer address cast to an integer in `{}` ({provenance}); \
                         allocation addresses vary run to run",
                        f.path
                    ),
                });
            }
        }
    }

    // Bare `for … in map {` loops (no method call to latch onto).
    let (lo, hi) = f.body;
    let mut j = lo;
    while j < hi {
        if ident_at(file, j) == Some("for") {
            // find `in` at this loop header
            let mut k = j + 1;
            while k < hi && ident_at(file, k) != Some("in") && !punct_at(file, k, '{') {
                k += 1;
            }
            if ident_at(file, k) == Some("in") {
                let mut m = k + 1;
                let mut last_ident: Option<&str> = None;
                loop {
                    match file.toks.get(m).map(|t| &t.kind) {
                        Some(TokKind::Punct('&')) | Some(TokKind::Punct('.')) => m += 1,
                        Some(TokKind::Ident(s)) if s == "mut" => m += 1,
                        Some(TokKind::Ident(s)) => {
                            last_ident = Some(s.as_str());
                            m += 1;
                        }
                        _ => break,
                    }
                }
                if punct_at(file, m, '{') {
                    if let Some(name) = last_ident {
                        let hashy =
                            (name == "self" && f.self_is_hash) || file.hash_names.contains(name);
                        if hashy {
                            push(Diagnostic {
                                lint: Lint::DetHashIter,
                                line: file.toks[j].line,
                                message: format!(
                                    "`for … in {name}` iterates a hash container in `{}` \
                                     ({provenance}); hash order is nondeterministic",
                                    f.path
                                ),
                            });
                        }
                    }
                }
            }
        }
        j += 1;
    }
}

// ---------------------------------------------------------------------
// Baseline + JSON rendering
// ---------------------------------------------------------------------

/// The stable identity of a finding for baseline matching: line numbers
/// churn, so the key is `file|lint|message`.
pub fn baseline_key(fd: &FileDiagnostic) -> String {
    format!(
        "{}|{}|{}",
        fd.file.display(),
        fd.diag.lint.name(),
        fd.diag.message
    )
}

/// Loads a baseline file: one key per line, `#` comments and blank
/// lines ignored. A missing file is an empty baseline.
pub fn load_baseline(path: &Path) -> Result<BTreeSet<String>, String> {
    if !path.exists() {
        return Ok(BTreeSet::new());
    }
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read baseline {}: {e}", path.display()))?;
    Ok(text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_string)
        .collect())
}

/// Splits findings into `(new, baselined)` against a baseline set, and
/// returns the stale baseline entries that no longer match anything.
pub fn partition_baseline(
    findings: Vec<FileDiagnostic>,
    baseline: &BTreeSet<String>,
) -> (Vec<FileDiagnostic>, Vec<FileDiagnostic>, Vec<String>) {
    let mut fresh = Vec::new();
    let mut parked = Vec::new();
    let mut seen: BTreeSet<String> = BTreeSet::new();
    for fd in findings {
        let key = baseline_key(&fd);
        if baseline.contains(&key) {
            seen.insert(key);
            parked.push(fd);
        } else {
            fresh.push(fd);
        }
    }
    let stale = baseline.difference(&seen).cloned().collect();
    (fresh, parked, stale)
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders findings as a JSON array for the CI artifact — stable field
/// order, one object per finding.
pub fn render_json(findings: &[FileDiagnostic], baselined: &[FileDiagnostic]) -> String {
    let mut out = String::from("[\n");
    let mut first = true;
    for (set, status) in [(findings, "new"), (baselined, "baselined")] {
        for fd in set {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&format!(
                "  {{\"file\": \"{}\", \"line\": {}, \"lint\": \"{}\", \"status\": \"{}\", \"message\": \"{}\"}}",
                json_escape(&fd.file.display().to_string()),
                fd.diag.line,
                fd.diag.lint.name(),
                status,
                json_escape(&fd.diag.message)
            ));
        }
    }
    out.push_str("\n]\n");
    out
}
