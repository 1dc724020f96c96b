//! The packed `f32` buffer codec and the two state objects every model
//! envelope is written through ([`Matrix::write_state`],
//! [`RowTable::write_state`]): exact for every bit pattern, strict and
//! canonical on the way in, and pinned as text.

use proptest::prelude::*;
use ptf_tensor::packed::{Reader, Writer};
use ptf_tensor::{Matrix, RowTable};

fn bits_of(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Decodes `text` as the packed buffer of a field named `buf`, through
/// `unpack_into` and `unpack_each` alike.
fn unpack(text: &str) -> Result<Vec<f32>, String> {
    let envelope = format!(r#"{{"buf":"{text}"}}"#);
    let mut r = Reader::new(envelope.as_bytes());
    r.open()?;
    r.key("buf")?;
    let packed = r.packed()?;
    let mut values = vec![0.0; packed.len()];
    let into = packed.unpack_into(&mut values);
    let mut each = Vec::new();
    assert_eq!(packed.unpack_each(|v| each.push(v)), into, "the two decoders disagree");
    if into.is_ok() {
        assert_eq!(bits_of(&each), bits_of(&values), "the two decoders disagree");
    }
    into?;
    r.close()?;
    r.finish().map(|()| values)
}

/// `values` as one packed buffer, quotes included.
fn packed_text(values: &[f32]) -> String {
    let mut text = Vec::new();
    Writer::new(&mut text).f32s(values);
    String::from_utf8(text).unwrap()
}

fn matrix_text(m: &Matrix) -> String {
    let mut text = Vec::new();
    m.write_state(&mut Writer::new(&mut text));
    String::from_utf8(text).unwrap()
}

fn table_text(t: &RowTable) -> String {
    let mut text = Vec::new();
    t.write_state(&mut Writer::new(&mut text));
    String::from_utf8(text).unwrap()
}

fn read_matrix(text: &str) -> Result<Matrix, String> {
    let mut m = Matrix::default();
    let mut r = Reader::new(text.as_bytes());
    m.read_state(&mut r, |_, _| Ok(()))?;
    r.finish().map(|()| m)
}

fn read_table(text: &str) -> Result<RowTable, String> {
    let mut t = RowTable::sparse_zeroed(0, 0);
    let mut r = Reader::new(text.as_bytes());
    t.read_state(&mut r, |_, _| Ok(()))?;
    r.finish().map(|()| t)
}

/// The envelope text is part of the checkpoint format
/// (`docs/checkpoint-format.md`): digit order, case and field order.
#[test]
fn packed_envelope_text_is_pinned() {
    assert_eq!(packed_text(&[]), r#""""#);
    assert_eq!(
        packed_text(&[f32::from_bits(0x0123_4567), f32::from_bits(0x89ab_cdef)]),
        r#""0123456789abcdef""#
    );
    let m = Matrix::from_vec(1, 2, vec![1.0, -0.0]);
    assert_eq!(matrix_text(&m), r#"{"rows":1,"cols":2,"data":"3f80000080000000"}"#);
    let mut t = RowTable::sparse_zeroed(9, 2);
    t.ensure_many_with(&[4], |_, row| row.copy_from_slice(&[0.5, f32::NEG_INFINITY]));
    assert_eq!(
        table_text(&t),
        r#"{"num_items":9,"cols":2,"ids":[4],"data":"3f000000ff800000","init_seed":"0000000000000000","init_std":0,"init_cols":0}"#
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every `u32` is some `f32`'s bits — NaN payloads, both zeros,
    /// infinities, subnormals — and each one comes back exactly, through
    /// one packed buffer and through both state objects, and re-encodes
    /// to the same text.
    #[test]
    fn arbitrary_bit_patterns_round_trip_exactly(
        bits in proptest::collection::vec(any::<u32>(), 0..40),
    ) {
        let values: Vec<f32> = bits.iter().map(|&b| f32::from_bits(b)).collect();
        let text = packed_text(&values);
        prop_assert_eq!(text.len(), 8 * values.len() + 2);
        let back = unpack(&text[1..text.len() - 1]).unwrap();
        prop_assert_eq!(bits_of(&back), bits.clone());
        prop_assert_eq!(packed_text(&back), text);

        let m = Matrix::from_vec(1, values.len(), values.clone());
        let json = matrix_text(&m);
        let back = read_matrix(&json).unwrap();
        prop_assert_eq!(bits_of(back.as_slice()), bits.clone());
        prop_assert_eq!(matrix_text(&back), json);

        let mut t = RowTable::sparse_zeroed(8, values.len());
        t.ensure_many_with(&[3], |_, row| row.copy_from_slice(&values));
        let json = table_text(&t);
        let back = read_table(&json).unwrap();
        prop_assert_eq!(bits_of(back.row(0)), bits);
        prop_assert_eq!(table_text(&back), json);
    }

    /// Anything but whole groups of `[0-9a-f]` is an `Err` — never a
    /// panic, never a silently skipped or defaulted value.
    #[test]
    fn malformed_buffers_error_instead_of_panicking(
        bytes in proptest::collection::vec(0u8..=255, 0..40),
    ) {
        // seven in eight characters are hex digits, so whole valid
        // buffers do occur; the rest are upper-case twins, plausible
        // noise and a multi-byte character, all JSON-string-safe
        const HEX: &[u8] = b"0123456789abcdef";
        const NOISE: &[&str] = &["A", "F", "g", "x", " ", "-", ".", "é"];
        let s: String = bytes
            .iter()
            .map(|&b| match b % 64 {
                d @ 0..=55 => (HEX[d as usize % 16] as char).to_string(),
                n => NOISE[n as usize % 8].to_string(),
            })
            .collect();
        let valid = s.len().is_multiple_of(8) && s.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'));
        let got = unpack(&s);
        prop_assert_eq!(got.is_ok(), valid, "buffer: {:?}", s);
        if let Ok(values) = got {
            prop_assert_eq!(values.len(), s.len() / 8);
        }
    }
}

#[test]
fn malformed_buffers_worth_naming() {
    assert_eq!(bits_of(&unpack("3f800000ffc00001").unwrap()), [0x3f80_0000, 0xffc0_0001]);
    for bad in ["3f80000", "3f8000000", "3F800000", "3f80000g", "3f80 000", "0x3f8000", "3f8000é"]
    {
        let err = unpack(bad).expect_err(bad);
        assert!(err.starts_with("buf at byte "), "{bad}: {err} does not name the buffer");
    }
    assert!(unpack("3f80000").unwrap_err().contains("string of 7 characters"));
    let err = unpack("3f8000003F800000").unwrap_err();
    assert!(err.starts_with("buf at byte 16: value 1 "), "{err} does not point at value 1");
    // a well-formed buffer of the wrong size for its shape
    let err = read_matrix(r#"{"rows":2,"cols":2,"data":"3f800000"}"#).unwrap_err();
    assert!(err.contains("1 elements cannot be 2x2"), "{err}");
    let err = read_table(
        r#"{"num_items":4,"cols":2,"ids":null,"data":"3f800000","init_seed":"1","init_std":0.1,"init_cols":2}"#,
    )
    .unwrap_err();
    assert!(err.contains("1 elements cannot be 4x2"), "{err}");
    // malformed digits inside a state object name the buffer too
    let err = read_matrix(r#"{"rows":1,"cols":1,"data":"3F800000"}"#).unwrap_err();
    assert!(err.starts_with("data at byte 27: value 0 "), "{err}");
    // a decimal array is the pre-packing format, not this one
    let err = read_matrix(r#"{"rows":1,"cols":1,"data":[1.0]}"#).unwrap_err();
    assert!(err.contains("packed f32 hex string: expected string, got array"), "{err}");
}

/// The reader takes only the writer's spelling: every departure from it
/// is an error that names the field it is in (or the field it expected),
/// though the JSON means the same.
#[test]
fn non_canonical_envelopes_are_refused_naming_the_field() {
    let mut t = RowTable::from_scope(
        ptf_tensor::ScopeView::Rows { num_items: 9, ids: &[4, 7] },
        2,
        2,
        0.1,
        3,
    );
    t.row_mut(0)[1] = -0.0;
    let good = table_text(&t);
    assert_eq!(table_text(&read_table(&good).unwrap()), good);
    let cases: &[(&str, String, &str)] = &[
        (
            "space in a value",
            good.replacen(r#""num_items":9"#, r#""num_items": 9"#, 1),
            "num_items at byte",
        ),
        (
            "space before a key",
            good.replacen(r#"{"num_items""#, r#"{ "num_items""#, 1),
            "field `num_items`",
        ),
        ("newline between fields", good.replacen(r#","cols""#, ",\n\"cols\"", 1), "field `cols`"),
        (
            "reordered fields",
            good.replacen(r#""num_items":9,"cols":2"#, r#""cols":2,"num_items":9"#, 1),
            "field `num_items`",
        ),
        ("missing field", good.replacen(r#""cols":2,"#, "", 1), "field `cols`"),
        (
            "leading zero",
            good.replacen(r#""num_items":9"#, r#""num_items":09"#, 1),
            "num_items at byte",
        ),
        ("plus sign on an id", good.replacen("[4,7]", "[+4,7]", 1), "ids at byte"),
        ("minus sign on an id", good.replacen("[4,7]", "[4,-7]", 1), "ids at byte"),
        ("exponent on a count", good.replacen(r#""cols":2"#, r#""cols":2e0"#, 1), "cols at byte"),
        ("a fraction on a count", good.replacen(r#""cols":2"#, r#""cols":2.0"#, 1), "cols at byte"),
        (
            "upper-case seed",
            good.replacen(r#""init_seed":""#, r#""init_seed":"F"#, 1),
            "init_seed at byte",
        ),
        (
            "short seed",
            good.replacen(r#""init_seed":"0"#, r#""init_seed":""#, 1),
            "init_seed at byte",
        ),
        (
            "another spelling of the std",
            good.replacen("0.10000000149011612", "0.1", 1),
            "init_std at byte",
        ),
        ("trailing space", format!("{good} "), "after field `init_cols`"),
        ("trailing bytes", format!("{good}{{}}"), "after field `init_cols`"),
        ("trailing newline", format!("{good}\n"), "after field `init_cols`"),
    ];
    for (what, text, field) in cases {
        assert_ne!(text, &good, "{what}: the damage did not apply");
        let err = read_table(text).expect_err(what);
        assert!(err.contains(field), "{what}: {err:?} does not name {field:?}");
        assert!(err.contains("byte "), "{what}: {err:?} has no byte offset");
    }
}
