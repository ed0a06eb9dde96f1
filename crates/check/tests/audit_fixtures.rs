//! Fixture tests for the `flumen-audit` lints: for every lint a firing
//! case, an allow-suppressed case, and (for the directive machinery) a
//! bad-allow case. Snippets are audited under the real Flumen policy,
//! so fixtures that must be tainted live in root modules
//! (`sweep::exec`).

use flumen_check::{audit_snippets, FileDiagnostic, Lint};

fn lints_of(diags: &[FileDiagnostic]) -> Vec<&'static str> {
    diags.iter().map(|d| d.diag.lint.name()).collect()
}

fn fired(diags: &[FileDiagnostic], lint: Lint) -> bool {
    diags.iter().any(|d| d.diag.lint == lint)
}

// ---------------------------------------------------------------- hash iter

#[test]
fn det_hash_iter_fires_in_tainted_fn() {
    let diags = audit_snippets(&[(
        "sweep::exec",
        r#"
        use std::collections::HashMap;
        pub fn run_plan() {
            let counts: HashMap<u64, u64> = HashMap::new();
            for (k, v) in counts.iter() {
                let _ = (k, v);
            }
        }
        "#,
    )]);
    assert!(
        fired(&diags, Lint::DetHashIter),
        "got: {:?}",
        lints_of(&diags)
    );
}

#[test]
fn det_hash_iter_silent_in_untainted_fn() {
    // Same body, but the fn is unreachable from any determinism root.
    let diags = audit_snippets(&[(
        "model::scratch",
        r#"
        use std::collections::HashMap;
        pub fn debug_dump() {
            let counts: HashMap<u64, u64> = HashMap::new();
            for (k, v) in counts.iter() {
                let _ = (k, v);
            }
        }
        "#,
    )]);
    assert!(diags.is_empty(), "got: {:?}", lints_of(&diags));
}

#[test]
fn det_hash_iter_keyed_lookup_stays_allowed() {
    let diags = audit_snippets(&[(
        "sweep::exec",
        r#"
        use std::collections::HashMap;
        pub fn run_plan() {
            let mut counts: HashMap<u64, u64> = HashMap::new();
            counts.insert(1, 2);
            let _ = counts.get(&1);
            let _ = counts.contains_key(&1);
            counts.remove(&1);
        }
        "#,
    )]);
    assert!(diags.is_empty(), "got: {:?}", lints_of(&diags));
}

#[test]
fn det_hash_iter_allow_comment_suppresses() {
    let diags = audit_snippets(&[(
        "sweep::exec",
        r#"
        use std::collections::HashMap;
        pub fn run_plan() {
            let counts: HashMap<u64, u64> = HashMap::new();
            // order is re-sorted below before anything escapes
            // flumen-check: allow(det-hash-iter)
            let mut v: Vec<_> = counts.iter().collect();
            v.sort();
        }
        "#,
    )]);
    assert!(diags.is_empty(), "got: {:?}", lints_of(&diags));
}

#[test]
fn det_hash_iter_propagates_across_crates() {
    // The iteration sits in a second crate, tainted only through the
    // call edge from the sweep executor.
    let diags = audit_snippets(&[
        (
            "sweep::exec",
            "pub fn run_plan() { flumen_model::tally(); }\n",
        ),
        (
            "model",
            r#"
            use std::collections::HashMap;
            pub fn tally() {
                let counts: HashMap<u64, u64> = HashMap::new();
                for k in counts.keys() {
                    let _ = k;
                }
            }
            "#,
        ),
    ]);
    assert!(
        fired(&diags, Lint::DetHashIter),
        "got: {:?}",
        lints_of(&diags)
    );
    assert_eq!(diags[0].file.to_string_lossy(), "model.rs");
}

// ------------------------------------------------------------- reductions

#[test]
fn det_unordered_reduction_fires_on_hash_chain() {
    let diags = audit_snippets(&[(
        "sweep::exec",
        r#"
        use std::collections::HashMap;
        pub fn run_plan() -> f64 {
            let w: HashMap<u64, f64> = HashMap::new();
            w.values().sum()
        }
        "#,
    )]);
    assert!(
        fired(&diags, Lint::DetUnorderedReduction),
        "got: {:?}",
        lints_of(&diags)
    );
}

#[test]
fn det_unordered_reduction_vec_chain_is_fine() {
    let diags = audit_snippets(&[(
        "sweep::exec",
        r#"
        pub fn run_plan() -> f64 {
            let w: Vec<f64> = Vec::new();
            w.iter().sum()
        }
        "#,
    )]);
    assert!(diags.is_empty(), "got: {:?}", lints_of(&diags));
}

#[test]
fn det_unordered_reduction_allow_comment_suppresses() {
    let diags = audit_snippets(&[(
        "sweep::exec",
        r#"
        use std::collections::HashMap;
        pub fn run_plan() -> u64 {
            let w: HashMap<u64, u64> = HashMap::new();
            // integer sum: order-independent by construction
            // flumen-check: allow(det-unordered-reduction, det-hash-iter)
            w.values().sum()
        }
        "#,
    )]);
    assert!(diags.is_empty(), "got: {:?}", lints_of(&diags));
}

// ------------------------------------------------------------- wall clock

#[test]
fn det_wall_clock_fires_in_tainted_fn() {
    let diags = audit_snippets(&[(
        "serve::exec",
        "pub fn replay() { let _t = std::time::Instant::now(); }\n",
    )]);
    assert!(
        fired(&diags, Lint::DetWallClock),
        "got: {:?}",
        lints_of(&diags)
    );
}

#[test]
fn det_wall_clock_system_time_fires_too() {
    let diags = audit_snippets(&[(
        "serve::exec",
        "use std::time::SystemTime;\npub fn replay() { let _t = SystemTime::now(); }\n",
    )]);
    assert!(
        fired(&diags, Lint::DetWallClock),
        "got: {:?}",
        lints_of(&diags)
    );
}

#[test]
fn det_wall_clock_allow_comment_suppresses() {
    let diags = audit_snippets(&[(
        "serve::exec",
        "pub fn replay() {\n    // timing metadata only, never result bytes\n    let _t = std::time::Instant::now(); // flumen-check: allow(det-wall-clock)\n}\n",
    )]);
    assert!(diags.is_empty(), "got: {:?}", lints_of(&diags));
}

#[test]
fn det_wall_clock_silent_in_bench_modules() {
    // The bench timing harness is wall-clock by design — exempt.
    let diags = audit_snippets(&[(
        "bench::harness",
        "pub fn run_benchmark_timing() { let _t = std::time::Instant::now(); }\n",
    )]);
    assert!(diags.is_empty(), "got: {:?}", lints_of(&diags));
}

// -------------------------------------------------------------------- rng

#[test]
fn det_unseeded_rng_fires() {
    let diags = audit_snippets(&[(
        "sweep::exec",
        "pub fn run_plan() { let _r = thread_rng(); }\n",
    )]);
    assert!(
        fired(&diags, Lint::DetUnseededRng),
        "got: {:?}",
        lints_of(&diags)
    );
}

#[test]
fn det_unseeded_rng_random_state_fires() {
    let diags = audit_snippets(&[(
        "sweep::exec",
        "use std::collections::hash_map::RandomState;\npub fn run_plan() { let _s = RandomState::new(); }\n",
    )]);
    assert!(
        fired(&diags, Lint::DetUnseededRng),
        "got: {:?}",
        lints_of(&diags)
    );
}

#[test]
fn det_unseeded_rng_seeded_is_fine() {
    let diags = audit_snippets(&[(
        "sweep::exec",
        "pub fn run_plan(seed: u64) { let _r = seed_from_u64(seed); }\nfn seed_from_u64(_s: u64) {}\n",
    )]);
    assert!(diags.is_empty(), "got: {:?}", lints_of(&diags));
}

#[test]
fn det_unseeded_rng_allow_comment_suppresses() {
    let diags = audit_snippets(&[(
        "sweep::exec",
        "pub fn run_plan() {\n    // flumen-check: allow(det-unseeded-rng)\n    let _r = thread_rng();\n}\n",
    )]);
    assert!(diags.is_empty(), "got: {:?}", lints_of(&diags));
}

// -------------------------------------------------------------- ambient id

#[test]
fn det_ambient_id_thread_current_fires() {
    let diags = audit_snippets(&[(
        "sweep::exec",
        "pub fn run_plan() { let _id = std::thread::current(); }\n",
    )]);
    assert!(
        fired(&diags, Lint::DetAmbientId),
        "got: {:?}",
        lints_of(&diags)
    );
}

#[test]
fn det_ambient_id_pointer_address_cast_fires() {
    let diags = audit_snippets(&[(
        "sweep::exec",
        "pub fn run_plan(buf: &[u8]) -> u64 { buf.as_ptr() as usize as u64 }\n",
    )]);
    assert!(
        fired(&diags, Lint::DetAmbientId),
        "got: {:?}",
        lints_of(&diags)
    );
}

#[test]
fn det_ambient_id_allow_comment_suppresses() {
    let diags = audit_snippets(&[(
        "sweep::exec",
        "pub fn run_plan() {\n    // flumen-check: allow(det-ambient-id)\n    let _id = std::thread::current();\n}\n",
    )]);
    assert!(diags.is_empty(), "got: {:?}", lints_of(&diags));
}

// ---------------------------------------------------------------- bad allow

#[test]
fn unknown_lint_in_allow_is_reported() {
    let diags = audit_snippets(&[(
        "sweep::exec",
        "// flumen-check: allow(det-hash-iterz)\npub fn run_plan() {}\n",
    )]);
    assert!(fired(&diags, Lint::BadAllow), "got: {:?}", lints_of(&diags));
}

#[test]
fn malformed_allow_is_reported() {
    let diags = audit_snippets(&[(
        "sweep::exec",
        "// flumen-check: alow(det-hash-iter)\npub fn run_plan() {}\n",
    )]);
    assert!(fired(&diags, Lint::BadAllow), "got: {:?}", lints_of(&diags));
}
