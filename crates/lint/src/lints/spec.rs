//! Spec-conformance check: normative docs must match the code.
//!
//! One invariant, checked in both directions: the frame-kind table in
//! `docs/wire-protocol.md` equals the `FrameKind` enum in
//! `crates/net/src/wire.rs` (names *and* discriminants). (The README's
//! `ptf` usage block and flags are held to the CLI's command table by
//! the tests in `src/cli.rs`, which read the table itself.)
//!
//! This runs on raw file text, not the lexed model — the doc is not Rust,
//! and `wire.rs`'s discriminants are exactly what we need to read.

use crate::diag::Diagnostic;
use std::fs;
use std::path::Path;

pub const NAME: &str = "spec-conformance";

const WIRE_RS: &str = "crates/net/src/wire.rs";
const WIRE_MD: &str = "docs/wire-protocol.md";

pub fn check(root: &Path) -> Result<Vec<Diagnostic>, String> {
    let read = |rel: &str| {
        fs::read_to_string(root.join(rel)).map_err(|e| format!("{rel}: cannot read: {e}"))
    };
    Ok(check_frame_kinds(&read(WIRE_RS)?, &read(WIRE_MD)?))
}

/// `Name = N` variants of `enum FrameKind { … }` in wire.rs.
pub fn parse_frame_enum(src: &str) -> Vec<(String, u8)> {
    let mut out = Vec::new();
    let mut in_enum = false;
    for line in src.lines() {
        let t = line.trim();
        if t.contains("enum FrameKind") {
            in_enum = true;
            continue;
        }
        if in_enum {
            if t.starts_with('}') {
                break;
            }
            // `Hello = 1,`
            if let Some((name, rest)) = t.split_once('=') {
                let name = name.trim();
                let num = rest.trim().trim_end_matches(',');
                if let (true, Ok(n)) = (is_variant(name), num.parse::<u8>()) {
                    out.push((name.to_string(), n));
                }
            }
        }
    }
    out
}

fn is_variant(s: &str) -> bool {
    !s.is_empty()
        && s.chars().next().is_some_and(|c| c.is_ascii_uppercase())
        && s.chars().all(|c| c.is_alphanumeric())
}

/// `| 1 | `Hello` | …` rows of the frame-kind table in the protocol doc.
pub fn parse_frame_table(md: &str) -> Vec<(String, u8, usize)> {
    let mut out = Vec::new();
    for (i, line) in md.lines().enumerate() {
        let t = line.trim();
        if !t.starts_with('|') {
            continue;
        }
        let cells: Vec<&str> = t.trim_matches('|').split('|').map(str::trim).collect();
        if cells.len() < 2 {
            continue;
        }
        if let Ok(kind) = cells[0].parse::<u8>() {
            let name = cells[1].trim_matches('`');
            if is_variant(name) {
                out.push((name.to_string(), kind, i + 1));
            }
        }
    }
    out
}

fn check_frame_kinds(wire_rs: &str, wire_md: &str) -> Vec<Diagnostic> {
    let code = parse_frame_enum(wire_rs);
    let doc = parse_frame_table(wire_md);
    let mut diags = Vec::new();
    if code.is_empty() {
        diags.push(Diagnostic::new(
            WIRE_RS,
            1,
            NAME,
            "no `enum FrameKind` with explicit discriminants found (the doc table is checked against it)".to_string(),
        ));
        return diags;
    }
    if doc.is_empty() {
        diags.push(Diagnostic::new(
            WIRE_MD,
            1,
            NAME,
            "no frame-kind table rows (`| N | `Name` | …`) found".to_string(),
        ));
        return diags;
    }
    for (name, n, line) in &doc {
        match code.iter().find(|(c, _)| c == name) {
            None => diags.push(Diagnostic::new(
                WIRE_MD,
                *line,
                NAME,
                format!("frame `{name}` documented but absent from FrameKind in {WIRE_RS}"),
            )),
            Some((_, m)) if m != n => diags.push(Diagnostic::new(
                WIRE_MD,
                *line,
                NAME,
                format!("frame `{name}` documented as kind {n} but FrameKind says {m}"),
            )),
            Some(_) => {}
        }
    }
    for (name, m) in &code {
        if !doc.iter().any(|(d, _, _)| d == name) {
            diags.push(Diagnostic::new(
                WIRE_MD,
                1,
                NAME,
                format!("FrameKind::{name} (kind {m}) is not documented in the frame-kind table"),
            ));
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;

    const ENUM: &str = "pub enum FrameKind {\n    Hello = 1,\n    Welcome = 2,\n}\n";

    #[test]
    fn frame_enum_and_table_parse() {
        assert_eq!(
            parse_frame_enum(ENUM),
            vec![("Hello".to_string(), 1), ("Welcome".to_string(), 2)]
        );
        let md = "| kind | frame |\n|---:|---|\n| 1 | `Hello` |\n| 2 | `Welcome` |\n";
        assert_eq!(parse_frame_table(md).len(), 2);
    }

    #[test]
    fn frame_drift_is_caught_in_both_directions() {
        let md_wrong_kind = "| 1 | `Hello` |\n| 3 | `Welcome` |\n";
        assert_eq!(check_frame_kinds(ENUM, md_wrong_kind).len(), 1);
        let md_missing = "| 1 | `Hello` |\n";
        assert_eq!(check_frame_kinds(ENUM, md_missing).len(), 1);
        let md_extra = "| 1 | `Hello` |\n| 2 | `Welcome` |\n| 9 | `Bogus` |\n";
        assert_eq!(check_frame_kinds(ENUM, md_extra).len(), 1);
    }
}
