//! The packed `f32` buffer codec ([`PackedF32s`]) and the two wire
//! structs every model envelope serializes through: exact for every bit
//! pattern, strict on the way in, and pinned as text.

use proptest::prelude::*;
use ptf_tensor::{Matrix, PackedF32s, RowTable};

fn bits_of(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn unpack(text: &str) -> Result<Vec<f32>, String> {
    serde_json::from_str::<PackedF32s>(&format!("\"{text}\"")).unwrap().unpack("buf")
}

/// The envelope text is part of the checkpoint format
/// (`docs/checkpoint-format.md`): digit order, case and field order.
#[test]
fn packed_envelope_text_is_pinned() {
    let text = |values: &[f32]| serde_json::to_string(&PackedF32s::pack(values)).unwrap();
    assert_eq!(text(&[]), r#""""#);
    assert_eq!(
        text(&[f32::from_bits(0x0123_4567), f32::from_bits(0x89ab_cdef)]),
        r#""0123456789abcdef""#
    );
    let m = Matrix::from_vec(1, 2, vec![1.0, -0.0]);
    assert_eq!(
        serde_json::to_string(&m).unwrap(),
        r#"{"rows":1,"cols":2,"data":"3f80000080000000"}"#
    );
    let mut t = RowTable::sparse_zeroed(9, 2);
    t.ensure_many_with(&[4], |_, row| row.copy_from_slice(&[0.5, f32::NEG_INFINITY]));
    assert_eq!(
        serde_json::to_string(&t).unwrap(),
        r#"{"num_items":9,"cols":2,"ids":[4],"data":"3f000000ff800000","init_seed":"0000000000000000","init_std":0,"init_cols":0}"#
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every `u32` is some `f32`'s bits — NaN payloads, both zeros,
    /// infinities, subnormals — and each one comes back exactly, through
    /// the bare codec and through both wire structs, and re-encodes to
    /// the same text.
    #[test]
    fn arbitrary_bit_patterns_round_trip_exactly(
        bits in proptest::collection::vec(any::<u32>(), 0..40),
    ) {
        let values: Vec<f32> = bits.iter().map(|&b| f32::from_bits(b)).collect();
        let text = serde_json::to_string(&PackedF32s::pack(&values)).unwrap();
        prop_assert_eq!(text.len(), 8 * values.len() + 2);
        let back: PackedF32s = serde_json::from_str(&text).unwrap();
        prop_assert_eq!(bits_of(&back.unpack("buf").unwrap()), bits.clone());

        let m = Matrix::from_vec(1, values.len(), values.clone());
        let json = serde_json::to_string(&m).unwrap();
        let back: Matrix = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(bits_of(back.as_slice()), bits.clone());
        prop_assert_eq!(serde_json::to_string(&back).unwrap(), json);

        let mut t = RowTable::sparse_zeroed(8, values.len());
        t.ensure_many_with(&[3], |_, row| row.copy_from_slice(&values));
        let json = serde_json::to_string(&t).unwrap();
        let back: RowTable = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(bits_of(back.row(0)), bits);
        prop_assert_eq!(serde_json::to_string(&back).unwrap(), json);
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
        assert!(err.starts_with("buf: "), "{bad}: {err} does not name the buffer");
    }
    assert!(unpack("3f80000").unwrap_err().contains("string of 7 characters"));
    assert!(unpack("3f8000003F800000").unwrap_err().contains("value 1 "));
    // a well-formed buffer of the wrong size for its shape
    let err =
        serde_json::from_str::<Matrix>(r#"{"rows":2,"cols":2,"data":"3f800000"}"#).unwrap_err();
    assert!(err.to_string().contains("1 elements cannot be 2x2"), "{err}");
    let err = serde_json::from_str::<RowTable>(
        r#"{"num_items":4,"cols":2,"ids":null,"data":"3f800000","init_seed":"1","init_std":0.1,"init_cols":2}"#,
    )
    .unwrap_err();
    assert!(err.to_string().contains("1 elements cannot be 4x2"), "{err}");
    // malformed digits inside a wire struct name the buffer too
    let err =
        serde_json::from_str::<Matrix>(r#"{"rows":1,"cols":1,"data":"3F800000"}"#).unwrap_err();
    assert!(err.to_string().starts_with("matrix data: value 0 "), "{err}");
    // a decimal array is the pre-packing format, not this one
    let err = serde_json::from_str::<Matrix>(r#"{"rows":1,"cols":1,"data":[1.0]}"#).unwrap_err();
    assert!(err.to_string().contains("packed f32 hex string: expected string, got array"), "{err}");
}
