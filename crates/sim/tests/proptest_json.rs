//! Hostile-input and round-trip properties of the canonical JSON parser.
//!
//! Every sweep-cache entry read goes through [`Json::parse`], so
//! malformed bytes must come back as an `Err` (which the cache counts as
//! a miss), never a panic:
//!
//! * arbitrary strings — random bytes and JSON-flavoured soups — never
//!   panic the parser;
//! * `parse(to_canonical(x)) == x`, and the same for the pretty form.
//!
//! Single-byte mutations of stored cache entries, through the cache's
//! own decoder, are `flumen-sweep`'s `tests/proptest_cache.rs`.

use flumen_sim::json::MAX_DEPTH;
use flumen_sim::Json;
use proptest::prelude::*;
use proptest::TestRng;
use rand::Rng;
use std::collections::BTreeMap;

/// Space-separated tokens that steer the parser into every branch:
/// structure, escapes, literals, digits, and multi-byte UTF-8.
const SOUP: &str =
    r#"[ ] { } : , " \ \u \u12 u 0 3 9 1e - . + null true NaN Infinity -Infinity é λ 𝄞 a /"#;

struct Soup;

impl Strategy for Soup {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        let tokens: Vec<&str> = SOUP.split(' ').chain([" ", "\n"]).collect();
        let len = rng.gen_range(0usize..48);
        (0..len)
            .map(|_| tokens[rng.gen_range(0..tokens.len())])
            .collect()
    }
}

struct RandomText;

impl Strategy for RandomText {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        let len = rng.gen_range(0usize..64);
        let raw: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
        String::from_utf8_lossy(&raw).into_owned()
    }
}

/// Arbitrary `Json` trees (no NaN: it never equals itself).
struct AnyJson;

fn gen_json(rng: &mut TestRng, depth: u32) -> Json {
    let leaf_only = depth == 0;
    match rng.gen_range(0u32..if leaf_only { 5 } else { 7 }) {
        0 => Json::Null,
        1 => Json::Bool(rng.gen()),
        2 => Json::Num(match rng.gen_range(0u32..5) {
            0 => rng.gen_range(-1e6..1e6f64).round(),
            1 => f64::from_bits(rng.gen_range(1u64..1 << 52)), // subnormal
            2 => [f64::INFINITY, f64::NEG_INFINITY, -0.0, 1e300, 5e-324][rng.gen_range(0..5)],
            _ => rng.gen_range(-1e9..1e9),
        }),
        3 | 4 => Json::Str(
            (0..rng.gen_range(0usize..8))
                .map(|_| match rng.gen_range(0u32..4) {
                    0 => char::from_u32(rng.gen_range(0u32..0x20)).unwrap_or('?'),
                    1 => ['"', '\\', '/', 'é', '𝄞'][rng.gen_range(0..5)],
                    _ => char::from(rng.gen_range(b' '..b'~')),
                })
                .collect(),
        ),
        5 => Json::Arr(
            (0..rng.gen_range(0usize..4))
                .map(|_| gen_json(rng, depth - 1))
                .collect(),
        ),
        _ => Json::Obj(
            (0..rng.gen_range(0usize..4))
                .map(|i| {
                    (
                        format!("k{i}{}", rng.gen_range(0u32..3)),
                        gen_json(rng, depth - 1),
                    )
                })
                .collect::<BTreeMap<_, _>>(),
        ),
    }
}

impl Strategy for AnyJson {
    type Value = Json;
    fn generate(&self, rng: &mut TestRng) -> Json {
        gen_json(rng, 5)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_strings_never_panic(soup in Soup, text in RandomText) {
        let _ = Json::parse(&soup);
        // Also inside a string literal, where the escape paths live.
        let _ = Json::parse(&format!("\"{soup}"));
        let _ = Json::parse(&text);
    }

    #[test]
    fn canonical_and_pretty_forms_round_trip(x in AnyJson) {
        prop_assert_eq!(Json::parse(&x.to_canonical()).unwrap(), x.clone());
        prop_assert_eq!(Json::parse(&x.to_pretty()).unwrap(), x);
    }
}

#[test]
fn split_unicode_escape_is_an_error() {
    assert!(Json::parse("\"\\u123é\"").is_err());
    assert!(Json::parse("\"\\u12").is_err());
    assert_eq!(Json::parse("\"\\u00e9\"").unwrap(), Json::Str("é".into()));
}

#[test]
fn nesting_is_bounded() {
    let deep = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
    assert!(Json::parse(&deep(MAX_DEPTH)).is_ok());
    assert!(Json::parse(&deep(MAX_DEPTH + 1)).is_err());
    // A file of repeated `[` or `{"a":` errors instead of overflowing.
    assert!(Json::parse(&"[".repeat(1_000_000)).is_err());
    assert!(Json::parse(&"{\"a\":".repeat(200_000)).is_err());
}
