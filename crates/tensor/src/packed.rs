//! The state codec: every model and client envelope is written and read
//! here, in one pass, straight between the live buffers and the text.
//!
//! An envelope is canonical JSON (`docs/checkpoint-format.md`): one
//! compact object whose fields come in one fixed order, with no
//! whitespace anywhere. A [`Writer`] appends its tokens into one byte
//! buffer; a [`Reader`] is a cursor over a byte slice that expects exactly
//! those tokens in that order. The tokens are:
//!
//! * **keys**, `"name":`, with a comma before every key but an object's
//!   first;
//! * **decimal integers** (ids, shapes, counters) without sign, leading
//!   zeros or exponent. A writer spells every number as the vendored JSON
//!   layer did, through `f64`: an integral value below 2⁵³ as an integer,
//!   anything else in `f64`'s shortest round-trip form (`init_std`'s
//!   `0.10000000149011612`). A reader takes exactly that spelling back;
//! * **hex `u64`s** (seeds, the Adam step counter, RNG words), a string
//!   of lowercase digits, fixed at 16 or without leading zeros as the
//!   field says: JSON numbers cannot carry a `u64` ≥ 2⁵³ exactly;
//! * **packed `f32` buffers**, one string per buffer: **8 lowercase hex
//!   digits per value, the value's [`f32::to_bits`] with the most
//!   significant digit first**, values in buffer order with nothing
//!   between them — `[1.0, -0.0]` reads `"3f80000080000000"`. This is the
//!   raw-bits rule `ptf-net`'s wire codec follows. Unlike decimal text it
//!   is exact for every bit pattern (`-0.0`, NaN payloads, ±inf,
//!   subnormals) and a fixed 8 bytes per value;
//! * names (`"NeuMF"`, `"w0"`), `null`, and arrays of any of these.
//!
//! A reader accepts only what a writer writes, so export → import →
//! export is byte-identical: whitespace, a reordered or missing field, a
//! leading zero, a sign, an upper-case digit or trailing bytes are each an
//! `Err` that names the field and the byte offset, never a panic.
//!
//! The hex kernel is branch-free digit arithmetic on 64-bit words (one
//! word is one value's 8 digits) and runs under [`crate::isa::dispatch`],
//! where it vectorizes.

use crate::isa;
use std::fmt::Display;
use std::io::Write as _;

const DIGITS: usize = 8;
const ONES: u64 = 0x0101_0101_0101_0101;
/// The high bit of every byte of a word.
const HIGH: u64 = 0x80 * ONES;
/// Integers from here up are not exact in an `f64`.
const EXACT: u64 = 1 << 53;

/// The 8 hex digits of `bits`, most significant first in big-endian byte
/// order: nibble `k` is spread into byte `k`, then mapped to ASCII
/// (`'0' + d`, plus `'a' - '9' - 1` where `d > 9`).
#[inline(always)]
fn hex_digits(bits: u32) -> u64 {
    let x = u64::from(bits);
    let x = (x | x << 16) & 0x0000_ffff_0000_ffff;
    let x = (x | x << 8) & 0x00ff_00ff_00ff_00ff;
    let x = (x | x << 4) & 0x0f0f_0f0f_0f0f_0f0f;
    let letters = (x + 6 * ONES) >> 4 & ONES;
    x + 0x30 * ONES + letters * 0x27
}

/// The value of 8 hex digits read big-endian, and a word that is nonzero
/// unless every byte is in `[0-9a-f]`. Each byte is classified on its
/// low 7 bits (no carry can cross a byte) and must have its high bit
/// clear.
#[inline(always)]
fn hex_value(word: u64) -> (u32, u64) {
    let low = word & !HIGH;
    let at_least = |c: u64| low + (0x80 - c) * ONES;
    let digit = at_least(b'0' as u64) & !at_least(b'9' as u64 + 1);
    let letter = at_least(b'a' as u64) & !at_least(b'f' as u64 + 1);
    let invalid = ((digit | letter) & !word & HIGH) ^ HIGH;
    let x = (word & 0x0f0f_0f0f_0f0f_0f0f) + (letter & HIGH) / 0x80 * 9;
    let x = (x | x >> 4) & 0x00ff_00ff_00ff_00ff;
    let x = (x | x >> 8) & 0x0000_ffff_0000_ffff;
    let x = (x | x >> 16) & 0xffff_ffff;
    (x as u32, invalid)
}

/// Writes the digits of `values` into `text` (`8 × values.len()` bytes).
fn pack_into(values: &[f32], text: &mut [u8]) {
    isa::dispatch(
        #[inline(always)]
        |_| {
            for (group, value) in text.chunks_exact_mut(DIGITS).zip(values) {
                group.copy_from_slice(&hex_digits(value.to_bits()).to_be_bytes());
            }
        },
    )
}

/// Reads `values.len()` digit groups of `text`; `Err` is the index of the
/// first malformed group.
fn unpack_into(text: &[u8], values: &mut [f32]) -> Result<(), usize> {
    let group = |g: &[u8]| hex_value(u64::from_be_bytes(g.try_into().expect("8-byte group")));
    let invalid = isa::dispatch(
        #[inline(always)]
        |_| {
            let mut invalid = 0;
            for (g, value) in text.chunks_exact(DIGITS).zip(values.iter_mut()) {
                let (bits, bad) = group(g);
                invalid |= bad;
                *value = f32::from_bits(bits);
            }
            invalid
        },
    );
    match invalid {
        0 => Ok(()),
        _ => Err(text.chunks_exact(DIGITS).position(|g| group(g).1 != 0).expect("a bad group")),
    }
}

/// The error for a packed buffer whose group `i` is not hex digits.
fn bad_group(i: usize) -> String {
    format!("value {i} of the packed f32 string is not {DIGITS} lowercase hex digits")
}

fn bad_length(len: usize) -> String {
    format!("packed f32 string of {len} characters is not a multiple of {DIGITS}")
}

/// The one spelling of a number: the vendored JSON layer's, through
/// `f64` (see the module docs). `None` for a non-finite value, which has
/// no JSON spelling.
fn spell_number(out: &mut impl std::io::Write, n: f64) -> Option<()> {
    if !n.is_finite() {
        return None;
    }
    let written = if n.fract() == 0.0 && n.abs() < EXACT as f64 {
        write!(out, "{}", n as i64)
    } else {
        write!(out, "{n}")
    };
    written.ok()
}

/// Appends an envelope's canonical tokens to one byte buffer (see the
/// module docs). The caller lays out the envelope — keys in their order,
/// values between them — and the writer spells each token.
pub struct Writer<'a> {
    out: &'a mut Vec<u8>,
}

impl<'a> Writer<'a> {
    /// A writer appending to `out`.
    pub fn new(out: &'a mut Vec<u8>) -> Self {
        Self { out }
    }

    /// `{`.
    pub fn open(&mut self) {
        self.out.push(b'{');
    }

    /// `}`.
    pub fn close(&mut self) {
        self.out.push(b'}');
    }

    /// `"name":`, after a comma unless it is its object's first key.
    pub fn key(&mut self, name: &str) {
        if self.out.last() != Some(&b'{') {
            self.out.push(b',');
        }
        self.str(name);
        self.out.push(b':');
    }

    /// A name as a JSON string. Names are identifiers the program
    /// chooses, so none needs escaping.
    ///
    /// # Panics
    /// If `name` holds a quote, a backslash or a control character.
    pub fn str(&mut self, name: &str) {
        assert!(
            !name.bytes().any(|b| b < 0x20 || b == b'"' || b == b'\\'),
            "envelope name {name:?} needs escaping"
        );
        self.out.push(b'"');
        self.out.extend_from_slice(name.as_bytes());
        self.out.push(b'"');
    }

    /// `null`.
    pub fn null(&mut self) {
        self.out.extend_from_slice(b"null");
    }

    /// A non-negative integer: decimal digits below 2⁵³, else the JSON
    /// layer's `f64` spelling.
    pub fn uint(&mut self, v: u64) {
        if v >= EXACT {
            spell_number(self.out, v as f64).expect("an integer is finite");
            return;
        }
        let mut digits = [0u8; 20];
        let mut at = digits.len();
        let mut v = v;
        loop {
            at -= 1;
            digits[at] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        self.out.extend_from_slice(&digits[at..]);
    }

    /// A scalar `f32` as a JSON number, spelled through `f64`.
    ///
    /// # Panics
    /// If `v` is not finite: JSON has no number for it (state that may
    /// hold one is a packed buffer).
    pub fn number(&mut self, v: f32) {
        spell_number(self.out, v as f64)
            .unwrap_or_else(|| panic!("{v} has no JSON number; pack it instead"));
    }

    /// A `u64` as a string of lowercase hex digits without leading zeros.
    pub fn hex(&mut self, v: u64) {
        write!(self.out, "\"{v:x}\"").expect("a Vec takes every write");
    }

    /// A `u64` as a string of exactly 16 lowercase hex digits.
    pub fn hex16(&mut self, v: u64) {
        write!(self.out, "\"{v:016x}\"").expect("a Vec takes every write");
    }

    /// A packed `f32` buffer, packed in place at the end of the buffer.
    pub fn f32s(&mut self, values: &[f32]) {
        self.out.push(b'"');
        let start = self.out.len();
        self.out.resize(start + values.len() * DIGITS, 0);
        pack_into(values, &mut self.out[start..]);
        self.out.push(b'"');
    }

    /// An array of decimal ids.
    pub fn u32s(&mut self, ids: &[u32]) {
        self.out.reserve(2 + ids.len() * 11);
        self.array(ids, |w, &id| w.uint(u64::from(id)));
    }

    /// An id array, or `null` for `None` (a dense scope: every id).
    pub fn u32s_or_null(&mut self, ids: Option<&[u32]>) {
        match ids {
            Some(ids) => self.u32s(ids),
            None => self.null(),
        }
    }

    /// An array of `items`, each written by `each`.
    pub fn array<T>(
        &mut self,
        items: impl IntoIterator<Item = T>,
        mut each: impl FnMut(&mut Self, T),
    ) {
        self.out.push(b'[');
        for (k, item) in items.into_iter().enumerate() {
            if k > 0 {
                self.out.push(b',');
            }
            each(self, item);
        }
        self.out.push(b']');
    }
}

/// A packed `f32` buffer as read: its digits, not yet decoded, so the
/// caller can size and check its destination first.
pub struct Packed<'a> {
    digits: &'a [u8],
    field: &'static str,
    /// Byte offset of the first digit.
    at: usize,
}

impl Packed<'_> {
    /// Number of values.
    pub fn len(&self) -> usize {
        self.digits.len() / DIGITS
    }

    pub fn is_empty(&self) -> bool {
        self.digits.is_empty()
    }

    /// Decodes every value into `out`, which must be [`Packed::len`] long.
    pub fn unpack_into(&self, out: &mut [f32]) -> Result<(), String> {
        assert_eq!(out.len(), self.len(), "destination of the wrong length");
        unpack_into(self.digits, out).map_err(|i| self.bad_group(i))
    }

    /// Decodes the values in order, handing each to `each`: for a
    /// destination that is not one `f32` slice. On a damaged group the
    /// values before it have been handed over.
    pub fn unpack_each(&self, mut each: impl FnMut(f32)) -> Result<(), String> {
        for (i, g) in self.digits.chunks_exact(DIGITS).enumerate() {
            match hex_value(u64::from_be_bytes(g.try_into().expect("8-byte group"))) {
                (bits, 0) => each(f32::from_bits(bits)),
                _ => return Err(self.bad_group(i)),
            }
        }
        Ok(())
    }

    fn bad_group(&self, i: usize) -> String {
        // lint: allow(alloc-discipline) — the error of a damaged buffer, once
        format!("{} at byte {}: {}", self.field, self.at + i * DIGITS, bad_group(i))
    }
}

/// A cursor over an envelope that expects exactly a [`Writer`]'s tokens,
/// in the caller's order (see the module docs). Every error names the
/// field being read and a byte offset into the envelope.
pub struct Reader<'a> {
    text: &'a [u8],
    pos: usize,
    /// The last key read: the field errors name.
    field: &'static str,
    /// Where the value being read starts.
    at: usize,
}

impl<'a> Reader<'a> {
    pub fn new(text: &'a [u8]) -> Self {
        Self { text, pos: 0, field: "envelope", at: 0 }
    }

    /// An error about the value just read (or being read): names its
    /// field and where it starts.
    pub fn error(&self, problem: impl Display) -> String {
        format!("{} at byte {}: {problem}", self.field, self.at)
    }

    fn fail<T>(&self, problem: impl Display) -> Result<T, String> {
        Err(self.error(problem))
    }

    fn peek(&self) -> Option<u8> {
        self.text.get(self.pos).copied()
    }

    /// Starts a value at the cursor.
    fn start(&mut self) {
        self.at = self.pos;
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            return Ok(());
        }
        self.at = self.pos;
        self.fail(format_args!("expected `{}`", byte as char))
    }

    /// `{`.
    pub fn open(&mut self) -> Result<(), String> {
        self.start();
        self.expect(b'{')
    }

    /// `}`.
    pub fn close(&mut self) -> Result<(), String> {
        self.expect(b'}')
    }

    /// `"name":` — the next field must be this one — after a comma unless
    /// it is its object's first key.
    pub fn key(&mut self, name: &'static str) -> Result<(), String> {
        let start = self.pos;
        let comma = start > 0 && self.text[start - 1] != b'{';
        let rest = &self.text[start..];
        let rest = if comma { rest.strip_prefix(b",") } else { Some(rest) };
        let after = rest
            .and_then(|r| r.strip_prefix(b"\""))
            .and_then(|r| r.strip_prefix(name.as_bytes()))
            .and_then(|r| r.strip_prefix(b"\":"));
        let Some(after) = after else {
            return Err(format!("expected field `{name}` at byte {start}"));
        };
        self.pos = self.text.len() - after.len();
        self.field = name;
        self.at = self.pos;
        Ok(())
    }

    /// A name string (no escapes: a writer writes none).
    pub fn str(&mut self) -> Result<&'a str, String> {
        self.start();
        self.expect(b'"')?;
        let from = self.pos;
        let len = self.text[from..].iter().position(|&b| b == b'"' || b == b'\\' || b < 0x20);
        match len.map(|n| (n, self.text[from + n])) {
            Some((n, b'"')) => {
                self.pos = from + n + 1;
                std::str::from_utf8(&self.text[from..from + n])
                    .or_else(|_| self.fail("a string that is not UTF-8"))
            }
            Some(_) => self.fail("an escape or control character in a name"),
            None => self.fail("an unterminated string"),
        }
    }

    /// `null`, if it is next (consumed); otherwise nothing is read.
    pub fn null(&mut self) -> bool {
        self.start();
        let null = self.text[self.pos..].starts_with(b"null");
        if null {
            self.pos += 4;
        }
        null
    }

    /// The byte after a number must end it.
    fn ends_number(&self) -> bool {
        matches!(self.peek(), None | Some(b',' | b'}' | b']'))
    }

    /// A [`Writer::uint`] integer: digits only, no leading zero, below
    /// 2⁵³.
    pub fn uint(&mut self) -> Result<u64, String> {
        self.start();
        let digits = self.text[self.pos..].iter().take_while(|b| b.is_ascii_digit()).count();
        if digits == 0 {
            return self.fail("expected a decimal integer without sign");
        }
        let token = &self.text[self.pos..self.pos + digits];
        if token[0] == b'0' && digits > 1 {
            return self.fail("a decimal integer with a leading zero");
        }
        let value = token.iter().try_fold(0u64, |v, &d| {
            v.checked_mul(10)?.checked_add(u64::from(d - b'0')).filter(|&v| v < EXACT)
        });
        self.pos += digits;
        if !self.ends_number() {
            return self.fail("not a canonical decimal integer");
        }
        value.map_or_else(|| self.fail("an integer of 2^53 or more"), Ok)
    }

    /// A decimal integer that fits a `u32`.
    pub fn u32(&mut self) -> Result<u32, String> {
        let v = self.uint()?;
        u32::try_from(v).or_else(|_| self.fail(format_args!("{v} does not fit 32 bits")))
    }

    /// A decimal integer that fits a `usize`.
    pub fn usize(&mut self) -> Result<usize, String> {
        let v = self.uint()?;
        usize::try_from(v).or_else(|_| self.fail(format_args!("{v} does not fit a usize")))
    }

    /// A scalar `f32` in [`Writer::number`]'s spelling, and only that.
    pub fn number(&mut self) -> Result<f32, String> {
        self.start();
        let len = self.text[self.pos..]
            .iter()
            .take_while(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
            .count();
        let token = &self.text[self.pos..self.pos + len];
        let value = std::str::from_utf8(token).ok().and_then(|t| t.parse::<f64>().ok());
        let Some(value) = value.map(|v| v as f32) else {
            return self.fail("expected a JSON number");
        };
        // the longest spelling, a subnormal's, is under 70 bytes
        let mut spelled = [0u8; 96];
        let mut rest = &mut spelled[..];
        let canonical = spell_number(&mut rest, value as f64).map(|()| 96 - rest.len());
        if canonical.map(|len| &spelled[..len]) != Some(token) {
            return self.fail("a number not spelled as the writer spells it");
        }
        self.pos += len;
        if !self.ends_number() {
            return self.fail("not a canonical JSON number");
        }
        Ok(value)
    }

    /// The digits of a hex string, 1 to 16 of `[0-9a-f]`.
    fn hex_token(&mut self) -> Result<&'a [u8], String> {
        self.start();
        self.expect(b'"')?;
        let from = self.pos;
        let len =
            self.text[from..].iter().take_while(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')).count();
        self.pos += len;
        if len == 0 || len > 16 || self.peek() != Some(b'"') {
            return self.fail("expected a string of 1 to 16 lowercase hex digits");
        }
        self.pos += 1;
        Ok(&self.text[from..from + len])
    }

    fn hex_of(digits: &[u8]) -> u64 {
        digits.iter().fold(0u64, |v, &d| {
            v << 4 | u64::from(if d.is_ascii_digit() { d - b'0' } else { d - b'a' + 10 })
        })
    }

    /// A [`Writer::hex`] `u64`: no leading zeros.
    pub fn hex(&mut self) -> Result<u64, String> {
        let digits = self.hex_token()?;
        if digits.len() > 1 && digits[0] == b'0' {
            return self.fail("a hex integer with a leading zero");
        }
        Ok(Self::hex_of(digits))
    }

    /// A [`Writer::hex16`] `u64`: exactly 16 digits.
    pub fn hex16(&mut self) -> Result<u64, String> {
        let digits = self.hex_token()?;
        if digits.len() != 16 {
            return self.fail("expected exactly 16 lowercase hex digits");
        }
        Ok(Self::hex_of(digits))
    }

    /// A packed `f32` buffer, checked to be whole 8-digit groups; its
    /// digits are decoded by [`Packed::unpack_into`].
    pub fn packed(&mut self) -> Result<Packed<'a>, String> {
        self.start();
        if self.peek() == Some(b'[') {
            // a pre-packing envelope holds a decimal array here
            return self.fail("packed f32 hex string: expected string, got array");
        }
        self.expect(b'"')?;
        let from = self.pos;
        let Some(len) = find_quote(&self.text[from..]) else {
            return self.fail("an unterminated packed f32 string");
        };
        if !len.is_multiple_of(DIGITS) {
            return self.fail(bad_length(len));
        }
        self.pos = from + len + 1;
        Ok(Packed { digits: &self.text[from..from + len], field: self.field, at: from })
    }

    /// The element count of the flat array at the cursor, counted up to
    /// the first `]` without reading it: what sizes a destination in one
    /// exact allocation. A damaged array can miscount; reading it fails.
    pub fn array_len(&self) -> usize {
        let rest = &self.text[self.pos..];
        rest.iter().position(|&b| b == b']').map_or(0, |end| {
            rest[..end].iter().filter(|&&b| b == b',').count() + usize::from(end > 1)
        })
    }

    /// An array of decimal ids into `out` (cleared first).
    pub fn u32s(&mut self, out: &mut Vec<u32>) -> Result<(), String> {
        out.clear();
        out.reserve_exact(self.array_len());
        self.array(|r| {
            out.push(r.u32()?);
            Ok(())
        })
        .map(drop)
    }

    /// A [`Writer::u32s_or_null`] id array.
    pub fn u32s_or_null(&mut self) -> Result<Option<Vec<u32>>, String> {
        if self.null() {
            return Ok(None);
        }
        let mut ids = Vec::new();
        self.u32s(&mut ids)?;
        Ok(Some(ids))
    }

    /// An array whose elements `each` reads; returns how many there were.
    /// An [`error`](Self::error) after it names where the array starts.
    pub fn array(
        &mut self,
        mut each: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<usize, String> {
        self.start();
        let start = self.pos;
        self.expect(b'[')?;
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(0);
        }
        let mut count = 0;
        loop {
            each(self)?;
            count += 1;
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    // the value just read is the whole array
                    self.at = start;
                    return Ok(count);
                }
                _ => {
                    self.at = self.pos;
                    return self.fail("expected `,` or `]`");
                }
            }
        }
    }

    /// The end of the envelope: nothing may follow.
    pub fn finish(self) -> Result<(), String> {
        if self.pos == self.text.len() {
            return Ok(());
        }
        Err(format!("trailing bytes at byte {} after field `{}`", self.pos, self.field))
    }
}

/// Offset of the first `"` in `bytes`: 32-byte blocks are tested with a
/// branch-free fold (which vectorizes), so a long packed buffer costs a
/// fraction of a byte-wise search.
fn find_quote(bytes: &[u8]) -> Option<usize> {
    const BLOCK: usize = 32;
    let clean = bytes
        .chunks_exact(BLOCK)
        .take_while(|block| !block.iter().fold(false, |hit, &b| hit | (b == b'"')))
        .count()
        * BLOCK;
    bytes[clean..].iter().position(|&b| b == b'"').map(|k| clean + k)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The table-lookup kernel the digit arithmetic replaced.
    fn oracle_digit(byte: u8) -> Option<u32> {
        match byte {
            b'0'..=b'9' => Some(u32::from(byte - b'0')),
            b'a'..=b'f' => Some(u32::from(byte - b'a' + 10)),
            _ => None,
        }
    }

    #[test]
    fn digit_arithmetic_matches_the_formatter() {
        for bits in [0u32, 1, 0x0123_4567, 0x89ab_cdef, 0x7fc0_1234, u32::MAX, 0x3f80_0000] {
            assert_eq!(hex_digits(bits).to_be_bytes(), *format!("{bits:08x}").as_bytes());
            assert_eq!(hex_value(hex_digits(bits)), (bits, 0));
        }
    }

    /// Every byte value at every digit position: accepted exactly when it
    /// is a lowercase hex digit, and then read as that digit.
    #[test]
    fn every_byte_in_every_position_is_classified_exactly() {
        for pos in 0..DIGITS {
            for byte in 0..=255u8 {
                let mut group = *b"3f800000";
                group[pos] = byte;
                let (bits, invalid) = hex_value(u64::from_be_bytes(group));
                match oracle_digit(byte) {
                    Some(d) => {
                        assert_eq!(invalid, 0, "byte {byte:#x} at {pos} rejected");
                        let shift = 28 - 4 * pos as u32;
                        assert_eq!(bits, 0x3f80_0000 & !(0xf << shift) | d << shift);
                    }
                    None => assert_ne!(invalid, 0, "byte {byte:#x} at {pos} accepted"),
                }
            }
        }
    }

    #[test]
    fn the_first_bad_group_is_reported() {
        let mut out = [0.0f32; 3];
        assert_eq!(unpack_into(b"3f8000003f8000003f80000G", &mut out), Err(2));
        assert_eq!(unpack_into(b"3F8000003f8000003f80000G", &mut out), Err(0));
    }

    /// Every `f32` the writer spells reads back as itself, from the
    /// smallest subnormal to the largest finite value; another spelling
    /// of the same value is refused.
    #[test]
    fn numbers_read_back_only_in_the_writers_spelling() {
        let values = [0.0, 0.1, 1.0, -2.5, 1e-45, f32::MIN_POSITIVE, f32::MAX, f32::MIN];
        for v in values {
            let mut text = Vec::new();
            Writer::new(&mut text).number(v);
            let mut r = Reader::new(&text);
            assert_eq!(r.number().map(f32::to_bits), Ok(v.to_bits()), "{v}");
            r.finish().unwrap();
        }
        for other in ["0.1", "1.0", "-0", "1e0", "+1", ".5", "01", "1 ", ""] {
            assert!(Reader::new(other.as_bytes()).number().is_err(), "{other:?} accepted");
        }
    }

    #[test]
    fn quote_search_spans_blocks() {
        for n in [0usize, 1, 31, 32, 33, 64, 100] {
            let mut bytes = vec![b'a'; n];
            assert_eq!(find_quote(&bytes), None);
            bytes.push(b'"');
            bytes.extend_from_slice(b"x\"");
            assert_eq!(find_quote(&bytes), Some(n));
        }
    }
}
