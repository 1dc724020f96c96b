//! The packed text form of `f32` buffers in state envelopes.
//!
//! Every envelope that stores model state (client, server, `--save`,
//! checkpoint manifest) is JSON, and every `f32` buffer inside one is a
//! single JSON string: **8 lowercase hex digits per value, the value's
//! [`f32::to_bits`] with the most significant digit first**, values in
//! buffer order with nothing between them — `[1.0, -0.0]` reads
//! `"3f80000080000000"`. This is the raw-bits rule `ptf-net`'s wire codec
//! follows and the hex convention the envelopes already use for `u64`
//! seeds. Unlike decimal text it is exact for every bit pattern (`-0.0`,
//! NaN payloads, ±inf, subnormals), a fixed 8 bytes per value, and costs a
//! table lookup per digit instead of a float formatter and parser.
//!
//! Decoding is strict — see [`PackedF32s::unpack`].

const DIGITS: usize = 8;
const HEX: &[u8; 16] = b"0123456789abcdef";

/// Value of each byte as a lowercase hex digit; `0xff` for every other byte.
const UNHEX: [u8; 256] = {
    let mut table = [0xffu8; 256];
    let mut d = 0;
    while d < 16 {
        table[HEX[d] as usize] = d as u8;
        d += 1;
    }
    table
};

/// An `f32` buffer in its packed text form (see the module docs). Its
/// serde form is that one string.
pub struct PackedF32s(String);

impl PackedF32s {
    /// Packs `values`, straight from the slice into one pre-sized buffer.
    pub fn pack(values: &[f32]) -> Self {
        let mut text = vec![0u8; values.len() * DIGITS];
        pack_into(values, &mut text);
        Self(String::from_utf8(text).expect("hex digits are ASCII"))
    }

    /// Decodes the buffer. Strict: the text must be a whole number of
    /// 8-digit groups of `[0-9a-f]` — no upper-case digits, whitespace or
    /// separators — so export → import → export is byte-identical. A
    /// violation is an `Err` that names the buffer as `what`.
    pub fn unpack(&self, what: &str) -> Result<Vec<f32>, String> {
        let text = self.0.as_bytes();
        if !text.len().is_multiple_of(DIGITS) {
            return Err(format!(
                "{what}: packed f32 string of {} characters is not a multiple of {DIGITS}",
                text.len()
            ));
        }
        let mut values = vec![0.0f32; text.len() / DIGITS];
        unpack_into(text, &mut values).map_err(|i| {
            format!(
                "{what}: value {i} of the packed f32 string is not {DIGITS} lowercase hex digits"
            )
        })?;
        Ok(values)
    }
}

/// Writes the digits of `values` into `text` (`8 × values.len()` bytes).
fn pack_into(values: &[f32], text: &mut [u8]) {
    for (group, value) in text.chunks_exact_mut(DIGITS).zip(values) {
        let bits = value.to_bits();
        for (k, digit) in group.iter_mut().enumerate() {
            *digit = HEX[(bits >> (28 - 4 * k) & 0xf) as usize];
        }
    }
}

/// Reads `values.len()` digit groups of `text`; `Err` is the index of the
/// first malformed group.
fn unpack_into(text: &[u8], values: &mut [f32]) -> Result<(), usize> {
    for (i, (group, value)) in text.chunks_exact(DIGITS).zip(values.iter_mut()).enumerate() {
        let mut bits = 0u32;
        let mut invalid = 0u8;
        for &byte in group {
            let digit = UNHEX[byte as usize];
            invalid |= digit;
            bits = bits << 4 | u32::from(digit & 0xf);
        }
        if invalid > 0xf {
            return Err(i);
        }
        *value = f32::from_bits(bits);
    }
    Ok(())
}

impl serde::Serialize for PackedF32s {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        self.0.serialize(serializer)
    }
}

impl<'de> serde::Deserialize<'de> for PackedF32s {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        // a pre-packing envelope holds a decimal array here: say what
        // this build reads instead
        String::deserialize(deserializer)
            .map(Self)
            .map_err(|e| serde::de::Error::custom(format!("packed f32 hex string: {e}")))
    }
}
