//! Hostile-input and round-trip properties of the canonical JSON parser.
//!
//! Every sweep-cache entry, checkpoint and snapshot read goes through
//! [`Json::parse`], so malformed bytes must come back as an `Err` (which
//! callers count as a miss), never a panic:
//!
//! * arbitrary strings — random bytes and JSON-flavoured soups — never
//!   panic the parser;
//! * every single-byte mutation of a canonical `Snapshot` envelope and of
//!   a canonical `JobSpec` document never panics it (mutations that break
//!   UTF-8 are refused by `read_to_string` before parsing, so they are
//!   skipped here);
//! * `parse(to_canonical(x)) == x`, and the same for the pretty form.

use flumen_sim::json::MAX_DEPTH;
use flumen_sim::{Clock, Cycles, EventQueue, Json, SimRng, Snapshot, ToJson};
use proptest::prelude::*;
use proptest::TestRng;
use rand::Rng;
use std::collections::BTreeMap;

/// Canonical form of a real `JobSpec::FullRun` (JPEG, small, mesh) as the
/// sweep cache stores it.
const JOB_SPEC: &str = r#"{"bench":{"kind":"jpeg","size":"small"},"cfg":{"control":{"arbitration_cycles":4,"chiplets_per_wire":2,"compute_lambdas":8,"config_pipeline":0.995,"fabric_n":8,"max_partitions":2,"program_cache_entries":0,"scheduler":{"buffer_capacity":16,"eta":0.4,"max_wait":100000,"reject_beta":0.85,"tau":100,"zeta":0.5},"stream_cycles_per_batch":0.5,"switch_cycles":15},"energy":{"core_busy_pj":10,"core_leak_w_per_core":0.25,"core_op_pj":6,"dram_background_w":0.5,"dram_pj":6000,"elec_router_static_w":0.02,"flumen_dacadc_static_w":0.35,"l1_pj":0.6,"l2_pj":2.5,"l3_leak_w":0.4,"l3_pj":20,"mesh_bit_pj":1.17,"mzim_comm_static_w":0.3,"optbus_static_w":0.5,"photonic_bit_pj":0.703,"ring_bit_pj":3.159},"max_cycles":80000000,"system":{"chiplets":16,"cores":64,"dram_latency":120,"freq_ghz":2.5,"ipc":2,"l1d":{"latency":1,"line_bytes":64,"size_bytes":32768,"ways":8},"l1i":{"latency":1,"line_bytes":64,"size_bytes":32768,"ways":4},"l2":{"latency":4,"line_bytes":64,"size_bytes":524288,"ways":8},"l3_slice":{"latency":20,"line_bytes":64,"size_bytes":1048576,"ways":16},"mlp":4,"reply_bits":576,"req_bits":128},"taskgen":{"max_configs_per_request":4096,"max_vectors_per_request":1024,"ops_per_mac":6,"svd_partition":4,"unit_macs":16384,"unitary_partition":8},"trace_interval":0},"job":"full_run","topology":"mesh"}"#;

/// A checkpoint envelope over kernel state: clock, event queue, RNG, and
/// the value shapes component snapshots use (non-finite floats, hex
/// words, escaped and non-ASCII strings).
fn snapshot_doc() -> String {
    let clock = Clock::at(Cycles::new(17));
    let mut events: EventQueue<(u64, String)> = EventQueue::new();
    events.schedule(Cycles::new(40), (3, "dram".into()));
    events.schedule(Cycles::new(25), (1, "phase λ".into()));
    let mut rng = SimRng::seed_from_u64(0xF1);
    let _: u64 = rng.gen();
    let state = Json::obj([
        ("clock", clock.to_json()),
        ("events", events.to_json()),
        ("rng", rng.to_json()),
        (
            "latency",
            Json::Arr(vec![Json::Num(f64::INFINITY), Json::Num(-2.5e-9)]),
        ),
        (
            "words",
            flumen_sim::json::u64s_hex(&[0, u64::MAX, 0xdead_beef]),
        ),
        ("label", Json::Str("tab\tquote\"\u{1}".into())),
        ("idle", Json::Null),
    ]);
    Snapshot::new("a98dc552", Cycles::new(57_000), state)
        .to_json()
        .to_canonical()
}

/// Parses every UTF-8-valid single-byte mutation of `doc` with `byte`.
fn parse_every_mutation(doc: &str, byte: u8, key: Option<&str>) {
    let bytes = doc.as_bytes();
    for pos in 0..bytes.len() {
        let mut mutated = bytes.to_vec();
        mutated[pos] = byte;
        let Ok(text) = String::from_utf8(mutated) else {
            continue;
        };
        if let (Ok(j), Some(key)) = (Json::parse(&text), key) {
            let _ = Snapshot::from_json(&j, key);
        }
    }
}

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

proptest! {
    // Each case walks every byte of both documents.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn single_byte_mutations_never_panic(byte in 0u8..0x80) {
        let snap = snapshot_doc();
        parse_every_mutation(&snap, byte, Some("a98dc552"));
        parse_every_mutation(JOB_SPEC, byte, None);
    }
}

#[test]
fn unmutated_documents_decode() {
    let snap = snapshot_doc();
    let back = Snapshot::from_json(&Json::parse(&snap).unwrap(), "a98dc552").unwrap();
    assert_eq!(back.to_json().to_canonical(), snap);
    assert_eq!(Json::parse(JOB_SPEC).unwrap().to_canonical(), JOB_SPEC);
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
