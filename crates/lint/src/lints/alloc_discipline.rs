//! Allocation-discipline lint: no allocating constructs inside declared
//! hot-path functions.
//!
//! `tests/hot_path.rs` proves zero steady-state heap allocations at
//! runtime — for the shapes it runs. This lint extends the proof
//! statically to every function declared hot in
//! `crates/lint/hot_paths.toml`, across all five protocols: the listed
//! spans may not contain constructs that allocate on every call.

use crate::config::HotPath;
use crate::diag::Diagnostic;
use crate::source::{tokens, SourceFile};

pub const NAME: &str = "alloc-discipline";

/// Constructs that heap-allocate. Substring matches on comment- and
/// string-stripped code; `.cloned()` deliberately does not match
/// `.clone()`.
const BANNED: &[&str] = &[
    "Vec::new",
    "vec!",
    "with_capacity",
    ".collect",
    ".to_vec",
    ".to_owned",
    ".to_string",
    "format!",
    "String::from",
    "String::new",
    "Box::new",
    ".clone()",
];

pub fn check(sf: &SourceFile, entry: &HotPath) -> Vec<Diagnostic> {
    let mut hot = vec![entry.fns.is_empty(); sf.len()];
    let mut diags = Vec::new();
    if !entry.fns.is_empty() {
        let spans = function_spans(&sf.code);
        for (name, start, end) in &spans {
            if entry.fns.contains(name) {
                for flag in hot.iter_mut().take(end + 1).skip(*start) {
                    *flag = true;
                }
            }
        }
        // a declared fn that moved or was renamed must fail here, or its
        // lint coverage silently vanishes
        for name in entry.fns.iter().filter(|f| !spans.iter().any(|(n, ..)| n == *f)) {
            diags.push(Diagnostic::new(
                "crates/lint/hot_paths.toml",
                1,
                NAME,
                format!("hot_paths.toml: fn {name} not found in {}", entry.path),
            ));
        }
    }
    for (i, &is_hot) in hot.iter().enumerate() {
        if !is_hot || sf.is_test[i] || sf.allows(i, NAME) {
            continue;
        }
        for tok in BANNED {
            if sf.code[i].contains(tok) {
                diags.push(Diagnostic::new(
                    &sf.rel,
                    i + 1,
                    NAME,
                    format!(
                        "`{tok}` allocates inside declared hot path ({}); move it to \
                         setup/scratch or annotate a cold branch with `lint: allow({NAME})`",
                        entry.reason
                    ),
                ));
            }
        }
    }
    diags
}

/// Locates `(name, start_line, end_line)` (0-based, inclusive) of every
/// function with a body. Signatures never contain `{`, so the body is
/// the brace-balanced span from the first `{` after the `fn` name;
/// bodyless trait methods (`;` first, outside any `[T; N]` array type)
/// are skipped.
pub fn function_spans(code: &[String]) -> Vec<(String, usize, usize)> {
    let stream: Vec<(usize, String)> = code
        .iter()
        .enumerate()
        .flat_map(|(line, text)| tokens(text).into_iter().map(move |t| (line, t)))
        .collect();
    let mut spans = Vec::new();
    let mut i = 0;
    while i < stream.len() {
        if stream[i].1 != "fn" {
            i += 1;
            continue;
        }
        let Some((fn_line, name)) = stream.get(i + 1).map(|(l, t)| (*l, t.clone())) else {
            break;
        };
        let fn_line = stream[i].0.min(fn_line);
        // find the body's `{` (or `;` for bodyless declarations)
        let mut j = i + 2;
        let mut brackets = 0usize;
        while j < stream.len() {
            match stream[j].1.as_str() {
                "[" => brackets += 1,
                "]" => brackets = brackets.saturating_sub(1),
                "{" => break,
                ";" if brackets == 0 => break,
                _ => {}
            }
            j += 1;
        }
        if j >= stream.len() || stream[j].1 == ";" {
            i = j;
            continue;
        }
        // brace-match the body
        let mut depth = 0usize;
        let mut end = stream[j].0;
        while j < stream.len() {
            match stream[j].1.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        end = stream[j].0;
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        spans.push((name, fn_line, end));
        i = j + 1;
    }
    spans
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(fns: &[&str]) -> HotPath {
        HotPath {
            path: "x.rs".to_string(),
            fns: fns.iter().map(|s| s.to_string()).collect(),
            reason: "test".to_string(),
        }
    }

    const SRC: &str = "\
fn cold() -> Vec<u32> {\n    (0..4).collect()\n}\n\
pub fn hot(buf: &mut Vec<f32>) {\n    buf.clear();\n    buf.push(1.0);\n}\n\
fn hot_bad(x: &[f32]) -> Vec<f32> {\n    x.to_vec()\n}\n";

    #[test]
    fn only_declared_fns_are_checked() {
        let sf = SourceFile::from_text("x.rs", SRC);
        assert!(check(&sf, &entry(&["hot"])).is_empty());
        let got = check(&sf, &entry(&["hot", "hot_bad"]));
        assert_eq!(got.len(), 1, "{got:?}");
        assert_eq!(got[0].line, 9);
    }

    #[test]
    fn a_declared_fn_that_does_not_exist_is_reported() {
        let sf = SourceFile::from_text("x.rs", SRC);
        let got = check(&sf, &entry(&["hot", "moved_away"]));
        assert_eq!(got.len(), 1, "{got:?}");
        assert_eq!(got[0].file, "crates/lint/hot_paths.toml");
        assert_eq!(got[0].msg, "hot_paths.toml: fn moved_away not found in x.rs");
    }

    #[test]
    fn whole_file_mode_checks_everything_but_tests() {
        let sf = SourceFile::from_text("x.rs", SRC);
        let got = check(&sf, &entry(&[]));
        assert_eq!(got.len(), 2, "{got:?}"); // cold()'s collect + hot_bad()'s to_vec
    }

    #[test]
    fn spans_cover_multiline_signatures_and_nested_braces() {
        let src = "impl S {\n    fn a(\n        x: u32,\n    ) -> u32 {\n        if x > 0 { x } else { 0 }\n    }\n    fn b(&self);\n    fn c(&self) {}\n}\n";
        let spans = function_spans(&SourceFile::from_text("x.rs", src).code);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0], ("a".to_string(), 1, 5));
        assert_eq!(spans[1].0, "c");
    }

    #[test]
    fn array_types_in_a_signature_do_not_end_it() {
        let src = "fn lanes(acc: &[f32; 8]) -> f32 {\n    acc[0]\n}\n";
        let spans = function_spans(&SourceFile::from_text("x.rs", src).code);
        assert_eq!(spans, vec![("lanes".to_string(), 0, 2)]);
    }
}
