//! Checkpoint-envelope robustness for [`RowTable`].
//!
//! The vendored JSON layer routes bare integers through `f64`, which
//! silently rounds u64 values ≥ 2⁵³ — and a rounded init seed would
//! re-derive *different* rows after a restore, corrupting the
//! scoped-client parity contract without any visible error. The wire
//! format therefore carries the seed as a hex string; these tests pin
//! that property for the whole upper seed range, and that malformed
//! envelopes come back as `Err`, never a panic.

use proptest::prelude::*;
use ptf_tensor::{RowTable, ScopeView};

const NUM_ITEMS: usize = 64;

/// Round-trips a table and asserts that rows materialized *after* the
/// restore are bit-identical to rows derived by the original — the part a
/// rounded seed would silently break.
fn assert_lazy_rows_survive(mut original: RowTable, json: &str) {
    let mut restored: RowTable = serde_json::from_str(json).expect("round-trip failed");
    assert_eq!(restored.num_items(), original.num_items());
    assert_eq!(restored.cols(), original.cols());
    assert_eq!(restored.len(), original.len());
    let all: Vec<u32> = (0..NUM_ITEMS as u32).collect();
    original.ensure_many(&all);
    restored.ensure_many(&all);
    for id in 0..NUM_ITEMS as u32 {
        let (a, b) = (original.lookup(id).unwrap(), restored.lookup(id).unwrap());
        assert_eq!(
            original.row(a),
            restored.row(b),
            "row {id} diverged after restore — seed not preserved exactly"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Seeds at and above 2⁵³ — exactly the range `f64` cannot represent
    /// exactly — survive a JSON round-trip bit-for-bit, for both sparse
    /// and dense seed-derived tables.
    #[test]
    fn big_seeds_survive_the_json_round_trip(
        seed in (1u64 << 53)..=u64::MAX,
        ids in proptest::collection::btree_set(0..NUM_ITEMS as u32, 1..12),
    ) {
        let ids: Vec<u32> = ids.into_iter().collect();
        let sparse = RowTable::from_scope(ScopeView::Rows { num_items: NUM_ITEMS, ids: &ids }, 5, 4, 0.1, seed);
        let json = serde_json::to_string(&sparse).unwrap();
        prop_assert!(
            json.contains(&format!("{seed:016x}")),
            "seed must travel as a hex string: {json}"
        );
        assert_lazy_rows_survive(sparse, &json);

        let dense = RowTable::from_scope(ScopeView::Full(NUM_ITEMS), 5, 4, 0.1, seed);
        let json = serde_json::to_string(&dense).unwrap();
        assert_lazy_rows_survive(dense, &json);
    }

    /// Arbitrary garbage in the seed field must surface as a deserialize
    /// error — not a panic, and never a silently defaulted table.
    #[test]
    fn malformed_seed_envelopes_error_instead_of_panicking(
        bytes in proptest::collection::vec(0u8..=255, 0..24),
    ) {
        // hex digits, plausible typos (g, x, 0x…, ±, whitespace) and noise,
        // all JSON-string-safe so the envelope itself stays well-formed
        const ALPHABET: &[u8] = b"0123456789abcdefABCDEFgxXz+- ._#";
        let s: String =
            bytes.iter().map(|&b| ALPHABET[b as usize % ALPHABET.len()] as char).collect();
        let envelope = format!(
            r#"{{"num_items":4,"cols":2,"ids":[0,2],"data":"00000000000000000000000000000000","init_seed":"{s}","init_std":0.1,"init_cols":2}}"#
        );
        let parsed = serde_json::from_str::<RowTable>(&envelope);
        // oracle: the seed field is valid iff it is parseable hex; anything
        // else must come back as a clean Err (reaching this assert at all
        // proves no panic)
        let valid_hex = u64::from_str_radix(&s, 16).is_ok();
        prop_assert_eq!(parsed.is_ok(), valid_hex, "envelope: {}", envelope);
    }
}

/// The non-property cases worth pinning by name: seed fields that decode
/// but must still be rejected, and the wire shapes around them.
#[test]
fn seed_envelope_edge_cases() {
    let envelope = |seed_json: &str| {
        format!(
            r#"{{"num_items":4,"cols":2,"ids":[0,2],"data":"00000000000000000000000000000000","init_seed":{seed_json},"init_std":0.1,"init_cols":2}}"#
        )
    };
    // a JSON *number* seed is exactly the f64-rounding hazard — reject it
    assert!(serde_json::from_str::<RowTable>(&envelope("9007199254740993")).is_err());
    // overflowing and non-hex strings error cleanly
    assert!(serde_json::from_str::<RowTable>(&envelope("\"1ffffffffffffffff\"")).is_err());
    assert!(serde_json::from_str::<RowTable>(&envelope("\"0xg\"")).is_err());
    assert!(serde_json::from_str::<RowTable>(&envelope("\"\"")).is_err());
    assert!(serde_json::from_str::<RowTable>(&envelope("null")).is_err());
    // a dense shape whose rows * cols overflows usize is a shape mismatch,
    // not a wrapped multiply that happens to equal the empty buffer
    let overflow = r#"{"num_items":4294967296,"cols":4294967296,"ids":null,"data":"","init_seed":"1","init_std":0.1,"init_cols":2}"#;
    let err = serde_json::from_str::<RowTable>(overflow).unwrap_err();
    assert!(err.to_string().contains("cannot be 4294967296x4294967296"), "{err}");
    // the canonical 16-digit form round-trips
    assert!(serde_json::from_str::<RowTable>(&envelope("\"ffffffffffffffff\"")).is_ok());
}
