//! Checkpoint-envelope robustness for [`RowTable`].
//!
//! A JSON number routed through `f64` silently rounds u64 values ≥ 2⁵³ —
//! and a rounded init seed would re-derive *different* rows after a
//! restore, corrupting the scoped-client parity contract without any
//! visible error. The state format therefore carries the seed as a
//! string of 16 hex digits; these tests pin that property for the whole
//! upper seed range, and that malformed envelopes come back as `Err`,
//! never a panic.

use proptest::prelude::*;
use ptf_tensor::packed::{Reader, Writer};
use ptf_tensor::{RowTable, ScopeView};

fn state_text(t: &RowTable) -> String {
    let mut text = Vec::new();
    t.write_state(&mut Writer::new(&mut text));
    String::from_utf8(text).unwrap()
}

fn read_table(text: &str) -> Result<RowTable, String> {
    let mut t = RowTable::sparse_zeroed(0, 0);
    let mut r = Reader::new(text.as_bytes());
    t.read_state(&mut r, |_, _| Ok(()))?;
    r.finish().map(|()| t)
}

const NUM_ITEMS: usize = 64;

/// Round-trips a table and asserts that rows materialized *after* the
/// restore are bit-identical to rows derived by the original — the part a
/// rounded seed would silently break.
fn assert_lazy_rows_survive(mut original: RowTable, json: &str) {
    let mut restored = read_table(json).expect("round-trip failed");
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
        let json = state_text(&sparse);
        prop_assert!(
            json.contains(&format!("{seed:016x}")),
            "seed must travel as a hex string: {json}"
        );
        assert_lazy_rows_survive(sparse, &json);

        let dense = RowTable::from_scope(ScopeView::Full(NUM_ITEMS), 5, 4, 0.1, seed);
        let json = state_text(&dense);
        assert_lazy_rows_survive(dense, &json);
    }

    /// Arbitrary garbage in the seed field must surface as a read error —
    /// not a panic, and never a silently defaulted table.
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
            r#"{{"num_items":4,"cols":2,"ids":[0,2],"data":"00000000000000000000000000000000","init_seed":"{s}","init_std":0.10000000149011612,"init_cols":2}}"#
        );
        let parsed = read_table(&envelope);
        // oracle: the seed field is valid iff it is the writer's form, 16
        // lowercase hex digits; anything else must come back as a clean
        // Err that names the field (reaching this assert at all proves no
        // panic)
        let canonical = s.len() == 16 && s.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'));
        prop_assert_eq!(parsed.is_ok(), canonical, "envelope: {}", envelope);
        if let Err(e) = parsed {
            prop_assert!(e.starts_with("init_seed at byte "), "{}", e);
        }
    }
}

/// The non-property cases worth pinning by name: seed fields that decode
/// but must still be rejected, and the wire shapes around them.
#[test]
fn seed_envelope_edge_cases() {
    let envelope = |seed_json: &str| {
        format!(
            r#"{{"num_items":4,"cols":2,"ids":[0,2],"data":"00000000000000000000000000000000","init_seed":{seed_json},"init_std":0.10000000149011612,"init_cols":2}}"#
        )
    };
    // a JSON *number* seed is exactly the f64-rounding hazard — reject it
    assert!(read_table(&envelope("9007199254740993")).is_err());
    // overflowing and non-hex strings error cleanly
    assert!(read_table(&envelope("\"1ffffffffffffffff\"")).is_err());
    assert!(read_table(&envelope("\"0xg\"")).is_err());
    assert!(read_table(&envelope("\"\"")).is_err());
    assert!(read_table(&envelope("null")).is_err());
    // hex that parses but is not the writer's 16-digit lowercase form
    assert!(read_table(&envelope("\"1\"")).is_err());
    assert!(read_table(&envelope("\"FFFFFFFFFFFFFFFF\"")).is_err());
    // a dense shape whose rows * cols overflows usize is a shape mismatch,
    // not a wrapped multiply that happens to equal the empty buffer
    let overflow = r#"{"num_items":4294967296,"cols":4294967296,"ids":null,"data":"","init_seed":"1","init_std":0.10000000149011612,"init_cols":2}"#;
    let err = read_table(overflow).unwrap_err();
    assert!(err.contains("cannot be 4294967296x4294967296"), "{err}");
    // the canonical 16-digit form round-trips
    assert!(read_table(&envelope("\"ffffffffffffffff\"")).is_ok());
}
