//! Whole-workspace item and call-graph index for `flumen-audit`.
//!
//! `flumen-check`'s original lints are per-file token scans; the audit
//! pass needs to know *which function* a token sits in and *who calls
//! whom* across crates, so this module grows the lexer output into a
//! lightweight index: every `fn` definition with its module-qualified
//! path, body token range and call sites, plus the file's `use` edges
//! and the set of identifiers known to be hash-container typed. Still no `syn`, still no external
//! dependencies — the scanner is a recursive token walk that only has
//! to be right about item structure (`mod`/`impl`/`trait`/`fn` nesting
//! and brace matching), not about expressions.
//!
//! The index deliberately over-approximates: a call site resolves to
//! *every* workspace function with a matching name when the path can't
//! be pinned down, which makes the taint propagation in
//! [`crate::taint`] conservative (it may taint too much, never too
//! little).

use crate::lexer::{self, LineComment, Tok, TokKind};
use crate::lints;
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

/// One workspace source file handed to the index builder.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Module path of the file (`sweep::exec`, `linalg::cmat`).
    pub module: String,
    /// Display / diagnostic path (workspace-relative for real files).
    pub file: PathBuf,
    /// File contents.
    pub src: String,
}

/// A call or method-call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Callee name (last path segment, or the method name).
    pub name: String,
    /// Full path segments when written as a path call (`exec::run_plan`
    /// → `["exec", "run_plan"]`); just the name for plain calls.
    pub segments: Vec<String>,
    /// Whether this is a `.name(…)` method call.
    pub is_method: bool,
    /// 1-based source line.
    pub line: u32,
    /// Token index of the callee name in the file's token stream.
    pub tok: usize,
}

/// One `fn` definition found by the item scanner.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Index of the defining file in [`WorkspaceIndex::files`].
    pub file: usize,
    /// Module path the fn is defined under.
    pub module: String,
    /// Bare function name.
    pub name: String,
    /// Fully qualified path (`module::name`).
    pub path: String,
    /// 1-based line of the `fn` name.
    pub line: u32,
    /// Token range of the body: `[open_brace, past_close)`. `(0, 0)`
    /// for bodyless trait-method signatures.
    pub body: (usize, usize),
    /// Whether the fn sits in an `impl` whose header names
    /// `HashMap`/`HashSet` (so a bare `self` receiver is hash-typed).
    pub self_is_hash: bool,
    /// Whether the fn is test code (`#[test]` / inside `#[cfg(test)]`).
    pub is_test: bool,
    /// Call sites inside the body.
    pub calls: Vec<CallSite>,
}

/// Per-file index: tokens, comments and scan results.
#[derive(Debug)]
pub struct FileIndex {
    /// Display path.
    pub file: PathBuf,
    /// Module path of the file.
    pub module: String,
    /// Token stream.
    pub toks: Vec<Tok>,
    /// Line comments (allow directives).
    pub comments: Vec<LineComment>,
    /// Identifiers known to be `HashMap`/`HashSet`-typed anywhere in
    /// this file (struct fields, locals, params — an over-approximation
    /// keyed by name).
    pub hash_names: BTreeSet<String>,
    /// `use` edges: imported (or aliased) name → full path segments.
    pub use_edges: BTreeMap<String, Vec<String>>,
}

/// The whole-workspace index: files, functions, and a name→fns map.
#[derive(Debug)]
pub struct WorkspaceIndex {
    /// Per-file data, in input order.
    pub files: Vec<FileIndex>,
    /// Every function definition found.
    pub fns: Vec<FnDef>,
    /// Function name → ids into [`WorkspaceIndex::fns`].
    pub by_name: BTreeMap<String, Vec<usize>>,
}

impl WorkspaceIndex {
    /// Builds the index from lexed sources.
    pub fn build(sources: &[SourceFile]) -> WorkspaceIndex {
        let mut files = Vec::with_capacity(sources.len());
        let mut fns: Vec<FnDef> = Vec::new();
        for (fi, s) in sources.iter().enumerate() {
            let (toks, comments) = lexer::lex(&s.src);
            let mask = lints::test_mask(&toks);
            let hash_names = collect_hash_names(&toks, &mask);
            let mut use_edges = BTreeMap::new();
            let mut scanner = Scanner {
                toks: &toks,
                mask: &mask,
                file: fi,
                fns: &mut fns,
                use_edges: &mut use_edges,
            };
            scanner.scan_items(0, toks.len(), &s.module, false);
            files.push(FileIndex {
                file: s.file.clone(),
                module: s.module.clone(),
                toks,
                comments,
                hash_names,
                use_edges,
            });
        }
        let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (id, f) in fns.iter().enumerate() {
            by_name.entry(f.name.clone()).or_default().push(id);
        }
        WorkspaceIndex {
            files,
            fns,
            by_name,
        }
    }
}

fn ident_at(toks: &[Tok], i: usize) -> Option<&str> {
    match toks.get(i).map(|t| &t.kind) {
        Some(TokKind::Ident(s)) => Some(s.as_str()),
        _ => None,
    }
}

fn punct_at(toks: &[Tok], i: usize, c: char) -> bool {
    matches!(toks.get(i).map(|t| &t.kind), Some(TokKind::Punct(p)) if *p == c)
}

/// Identifiers that look like calls syntactically but are control flow
/// or bindings (`match (a, b)`, `if (…)`, tuple-struct patterns).
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "in", "as", "where", "let", "else", "fn",
    "move", "ref", "mut", "unsafe", "break", "continue", "impl", "dyn", "pub", "crate", "super",
    "self", "Self", "use", "mod", "struct", "enum", "trait", "type", "const", "static",
];

/// Collects every identifier that is, somewhere in the file's
/// *production* code, annotated or initialized as a `HashMap`/`HashSet`:
/// `name: [std::collections::]HashMap<…>` or `name = HashMap::new()`.
/// Test tokens are skipped so fixture locals don't tag production names.
fn collect_hash_names(toks: &[Tok], mask: &[bool]) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for i in 0..toks.len() {
        if mask.get(i).copied().unwrap_or(false) {
            continue;
        }
        let Some(name) = ident_at(toks, i) else {
            continue;
        };
        if NON_CALL_KEYWORDS.contains(&name) {
            continue;
        }
        // `name :` (single colon) or `name =` (not `==`), followed by a
        // path whose segments include HashMap/HashSet before any
        // non-path token (`<`, `,`, …). `Vec<HashMap<…>>` is *not*
        // recorded: the Vec gives the iteration its order.
        let annotated = punct_at(toks, i + 1, ':') && !punct_at(toks, i + 2, ':');
        let assigned =
            punct_at(toks, i + 1, '=') && !punct_at(toks, i + 2, '=') && !punct_at(toks, i, '=');
        if !annotated && !assigned {
            continue;
        }
        let after = i + 2;
        let mut j = after;
        loop {
            match toks.get(j).map(|t| &t.kind) {
                Some(TokKind::Ident(seg)) => {
                    if seg == "HashMap" || seg == "HashSet" {
                        out.insert(name.to_string());
                        break;
                    }
                    j += 1;
                }
                Some(TokKind::Punct(':')) => j += 1,
                _ => break,
            }
        }
    }
    out
}

struct Scanner<'a> {
    toks: &'a [Tok],
    mask: &'a [bool],
    file: usize,
    fns: &'a mut Vec<FnDef>,
    use_edges: &'a mut BTreeMap<String, Vec<String>>,
}

impl Scanner<'_> {
    /// Scans items in `[lo, hi)` under `module`; `self_is_hash` marks
    /// fns whose enclosing impl targets a hash container.
    fn scan_items(&mut self, lo: usize, hi: usize, module: &str, self_is_hash: bool) {
        let mut i = lo;
        while i < hi {
            match ident_at(self.toks, i) {
                _ if punct_at(self.toks, i, '#') => {
                    // Attribute: outer `#[…]` or inner `#![…]`.
                    let open = if punct_at(self.toks, i + 1, '[') {
                        i + 1
                    } else if punct_at(self.toks, i + 1, '!') && punct_at(self.toks, i + 2, '[') {
                        i + 2
                    } else {
                        i += 1;
                        continue;
                    };
                    i = lints::skip_bracketed(self.toks, open);
                }
                Some("use") => {
                    i = self.scan_use(i + 1, hi);
                }
                Some("mod") => {
                    if let Some(name) = ident_at(self.toks, i + 1) {
                        let name = name.to_string();
                        if punct_at(self.toks, i + 2, '{') {
                            let end = lints::skip_braced(self.toks, i + 2);
                            let sub = format!("{module}::{name}");
                            self.scan_items(i + 3, end.saturating_sub(1), &sub, false);
                            i = end;
                        } else {
                            i += 2; // `mod name;` — separate file, indexed on its own.
                        }
                    } else {
                        i += 1;
                    }
                }
                Some("impl") | Some("trait") => {
                    let is_impl = ident_at(self.toks, i) == Some("impl");
                    // Header runs to the body `{` (generic bounds hold
                    // no braces); `impl Trait for Type` may also end in
                    // `;` inside macro-generated code — bail to `;` too.
                    let mut j = i + 1;
                    let mut hash_impl = false;
                    while j < hi {
                        match self.toks.get(j).map(|t| &t.kind) {
                            Some(TokKind::Punct('{')) => break,
                            Some(TokKind::Punct(';')) => break,
                            Some(TokKind::Ident(s)) if s == "HashMap" || s == "HashSet" => {
                                hash_impl = true;
                                j += 1;
                            }
                            _ => j += 1,
                        }
                    }
                    if punct_at(self.toks, j, '{') {
                        let end = lints::skip_braced(self.toks, j);
                        self.scan_items(j + 1, end.saturating_sub(1), module, is_impl && hash_impl);
                        i = end;
                    } else {
                        i = j + 1;
                    }
                }
                Some("fn") => {
                    if let Some(name) = ident_at(self.toks, i + 1) {
                        let name = name.to_string();
                        let line = self.toks[i + 1].line;
                        // Signature: to body `{` or `;` at paren/bracket
                        // depth 0.
                        let mut j = i + 2;
                        let mut depth = 0usize;
                        let mut body = (0usize, 0usize);
                        while j < self.toks.len() {
                            match &self.toks[j].kind {
                                TokKind::Punct('(') | TokKind::Punct('[') => {
                                    depth += 1;
                                    j += 1;
                                }
                                TokKind::Punct(')') | TokKind::Punct(']') => {
                                    depth = depth.saturating_sub(1);
                                    j += 1;
                                }
                                TokKind::Punct('{') if depth == 0 => {
                                    let end = lints::skip_braced(self.toks, j);
                                    body = (j, end);
                                    j = end;
                                    break;
                                }
                                TokKind::Punct(';') if depth == 0 => {
                                    j += 1;
                                    break;
                                }
                                _ => j += 1,
                            }
                        }
                        let calls = if body.1 > body.0 {
                            scan_body(self.toks, body.0, body.1)
                        } else {
                            Vec::new()
                        };
                        let is_test = self.mask.get(i).copied().unwrap_or(false);
                        self.fns.push(FnDef {
                            file: self.file,
                            module: module.to_string(),
                            name: name.clone(),
                            path: format!("{module}::{name}"),
                            line,
                            body,
                            self_is_hash,
                            is_test,
                            calls,
                        });
                        i = j;
                    } else {
                        // `fn(…)` pointer type or malformed — not an item.
                        i += 1;
                    }
                }
                _ => {
                    // Any other token at item level (struct/enum bodies,
                    // const exprs, …).
                    if let Some(TokKind::Punct('{')) = self.toks.get(i).map(|t| &t.kind) {
                        i = lints::skip_braced(self.toks, i);
                    } else {
                        i += 1;
                    }
                }
            }
        }
    }

    /// Parses one `use …;` declaration starting after the `use` keyword,
    /// recording name → path-segment edges. Handles flat paths,
    /// `as` aliases and one level of `{…}` groups.
    fn scan_use(&mut self, mut i: usize, hi: usize) -> usize {
        let mut prefix: Vec<String> = Vec::new();
        while i < hi {
            match self.toks.get(i).map(|t| &t.kind) {
                Some(TokKind::Ident(s)) if s == "as" => {
                    // `path as alias`
                    if let Some(alias) = ident_at(self.toks, i + 1) {
                        if !prefix.is_empty() {
                            self.use_edges.insert(alias.to_string(), prefix.clone());
                        }
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                Some(TokKind::Ident(s)) => {
                    prefix.push(s.clone());
                    i += 1;
                }
                Some(TokKind::Punct(':')) => i += 1,
                Some(TokKind::Punct('{')) => {
                    // Group: prefix::{a, b as c, nested::d}
                    let end = lints::skip_braced(self.toks, i);
                    let mut seg: Vec<String> = Vec::new();
                    let mut k = i + 1;
                    while k + 1 < end {
                        match self.toks.get(k).map(|t| &t.kind) {
                            Some(TokKind::Ident(s)) if s == "as" => {
                                if let Some(alias) = ident_at(self.toks, k + 1) {
                                    let mut full = prefix.clone();
                                    full.extend(seg.iter().cloned());
                                    self.use_edges.insert(alias.to_string(), full);
                                    seg.clear();
                                    k += 2;
                                    // Skip to next comma.
                                    while k + 1 < end && !punct_at(self.toks, k, ',') {
                                        k += 1;
                                    }
                                } else {
                                    k += 1;
                                }
                            }
                            Some(TokKind::Ident(s)) => {
                                seg.push(s.clone());
                                k += 1;
                            }
                            Some(TokKind::Punct(',')) => {
                                if let Some(last) = seg.last().cloned() {
                                    let mut full = prefix.clone();
                                    full.extend(seg.iter().cloned());
                                    self.use_edges.insert(last, full);
                                }
                                seg.clear();
                                k += 1;
                            }
                            _ => k += 1,
                        }
                    }
                    if let Some(last) = seg.last().cloned() {
                        let mut full = prefix.clone();
                        full.extend(seg.iter().cloned());
                        self.use_edges.insert(last, full);
                    }
                    // A group ends the use path.
                    return self.finish_use(end);
                }
                Some(TokKind::Punct(';')) => {
                    if prefix.len() > 1 {
                        if let Some(last) = prefix.last().cloned() {
                            self.use_edges.insert(last, prefix.clone());
                        }
                    }
                    return i + 1;
                }
                Some(TokKind::Punct('*')) => i += 1, // glob — no edge
                _ => i += 1,
            }
        }
        i
    }

    fn finish_use(&self, mut i: usize) -> usize {
        while i < self.toks.len() && !punct_at(self.toks, i, ';') {
            i += 1;
        }
        i + 1
    }
}

/// Skips a turbofish / generic-argument list: `i` on the `<`, returns
/// the index just past the matching `>`.
fn skip_angles(toks: &[Tok], i: usize) -> usize {
    let mut depth = 0usize;
    let mut j = i;
    while let Some(t) = toks.get(j) {
        match &t.kind {
            TokKind::Punct('<') => depth += 1,
            TokKind::Punct('>') => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return j + 1;
                }
            }
            TokKind::Punct(';') | TokKind::Punct('{') => return j, // bail: not generics
            _ => {}
        }
        j += 1;
    }
    toks.len()
}

/// Collects call sites in `[lo, hi)`.
fn scan_body(toks: &[Tok], lo: usize, hi: usize) -> Vec<CallSite> {
    let mut calls = Vec::new();
    let mut j = lo;
    while j < hi {
        let Some(name) = ident_at(toks, j) else {
            j += 1;
            continue;
        };
        // Macro invocation: `name!(…)` / `name![…]` / `name!{…}`.
        if punct_at(toks, j + 1, '!')
            && (punct_at(toks, j + 2, '(')
                || punct_at(toks, j + 2, '[')
                || punct_at(toks, j + 2, '{'))
        {
            j += 2;
            continue;
        }
        if NON_CALL_KEYWORDS.contains(&name) {
            j += 1;
            continue;
        }
        // Optional turbofish between name and the call parens.
        let mut k = j + 1;
        if punct_at(toks, k, ':') && punct_at(toks, k + 1, ':') && punct_at(toks, k + 2, '<') {
            k = skip_angles(toks, k + 2);
        }
        if !punct_at(toks, k, '(') {
            j += 1;
            continue;
        }
        let is_method = punct_at(toks, j.wrapping_sub(1), '.');
        let mut segments = vec![name.to_string()];
        if !is_method {
            // Walk path segments backwards: `a :: b :: name(`.
            let mut b = j;
            while b >= 2
                && punct_at(toks, b - 1, ':')
                && punct_at(toks, b - 2, ':')
                && b >= 3
                && ident_at(toks, b - 3).is_some()
            {
                segments.insert(0, ident_at(toks, b - 3).unwrap().to_string());
                b -= 3;
            }
        }
        calls.push(CallSite {
            name: name.to_string(),
            segments,
            is_method,
            line: toks[j].line,
            tok: j,
        });
        j += 1;
    }
    calls
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idx(sources: &[(&str, &str)]) -> WorkspaceIndex {
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

    #[test]
    fn fns_are_found_with_paths_and_bodies() {
        let ix = idx(&[(
            "a::b",
            r#"
            pub fn top() { helper(1); other::thing(); x.method(2); }
            mod inner {
                fn nested() {}
            }
            impl Foo {
                pub(crate) fn meth(&self) -> u64 { self.calc() }
            }
            "#,
        )]);
        let paths: Vec<&str> = ix.fns.iter().map(|f| f.path.as_str()).collect();
        assert_eq!(
            paths,
            vec!["a::b::top", "a::b::inner::nested", "a::b::meth"]
        );
        let top = &ix.fns[0];
        let names: Vec<(&str, bool)> = top
            .calls
            .iter()
            .map(|c| (c.name.as_str(), c.is_method))
            .collect();
        assert_eq!(
            names,
            vec![("helper", false), ("thing", false), ("method", true)]
        );
        assert_eq!(top.calls[1].segments, vec!["other", "thing"]);
    }

    #[test]
    fn hash_names_and_hash_impls_are_detected() {
        let ix = idx(&[(
            "m",
            r#"
            struct S { cache: std::collections::HashMap<String, u64>, v: Vec<HashMap<u8, u8>> }
            fn f() { let mut seen = HashSet::new(); let ordered: BTreeMap<u8, u8> = BTreeMap::new(); }
            impl<K: Ord, V> ToJson for HashMap<K, V> { fn to_json(&self) {} }
            "#,
        )]);
        let names = &ix.files[0].hash_names;
        assert!(names.contains("cache"));
        assert!(names.contains("seen"));
        assert!(!names.contains("ordered"));
        assert!(!names.contains("v"), "Vec<HashMap> iterates in Vec order");
        let to_json = ix.fns.iter().find(|f| f.name == "to_json").unwrap();
        assert!(to_json.self_is_hash);
    }

    #[test]
    fn test_items_are_marked() {
        let ix = idx(&[(
            "m",
            r#"
            fn prod() {}
            #[cfg(test)]
            mod tests {
                #[test]
                fn check() {}
            }
            "#,
        )]);
        let prod = ix.fns.iter().find(|f| f.name == "prod").unwrap();
        let check = ix.fns.iter().find(|f| f.name == "check").unwrap();
        assert!(!prod.is_test);
        assert!(check.is_test);
    }

    #[test]
    fn use_edges_resolve_groups_and_aliases() {
        let ix = idx(&[(
            "m",
            "use flumen_sweep::{CheckpointStore, JobResult as JR};\nuse std::sync::Mutex;\n",
        )]);
        let e = &ix.files[0].use_edges;
        assert_eq!(
            e.get("CheckpointStore").unwrap(),
            &vec!["flumen_sweep".to_string(), "CheckpointStore".to_string()]
        );
        assert_eq!(
            e.get("JR").unwrap(),
            &vec!["flumen_sweep".to_string(), "JobResult".to_string()]
        );
        assert_eq!(
            e.get("Mutex").unwrap(),
            &vec!["std".to_string(), "sync".to_string(), "Mutex".to_string()]
        );
    }

    #[test]
    fn turbofish_calls_are_still_calls() {
        let ix = idx(&[("m", "fn f() { it.sum::<f64>(); parse::<u32>(s); }")]);
        let f = &ix.fns[0];
        let names: Vec<(&str, bool)> = f
            .calls
            .iter()
            .map(|c| (c.name.as_str(), c.is_method))
            .collect();
        assert_eq!(names, vec![("sum", true), ("parse", false)]);
    }
}
