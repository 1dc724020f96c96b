//! Panic-policy lint: production paths in the networked stack, the
//! on-disk arena decoder and the CLI must propagate errors, not panic.
//!
//! The PR 7 contract: bind/connect/mid-run failures exit 1 with a
//! message. A stray `unwrap()` in the server's round loop instead tears
//! down the whole fleet with a backtrace. Test modules are exempt;
//! infallible conversions should be rewritten to be visibly infallible
//! (e.g. `from_le_bytes` on indexed bytes rather than
//! `try_into().unwrap()`).
//!
//! `print!`/`println!` are banned with them: they panic when stdout is a
//! closed pipe (`ptf … | head`) or a full disk. Stdout goes through one
//! fallible writer; `eprint!`/`eprintln!` stay allowed.

use crate::diag::Diagnostic;
use crate::source::SourceFile;

pub const NAME: &str = "panic-policy";

/// Production surfaces: the networked deployment stack, the arena
/// decoder (it reads files a user hands the CLI), and the binary's own
/// sources (`src/cli.rs`, `src/bin/ptf.rs`, `src/lib.rs`).
const SCOPE: &[&str] = &["crates/net/src/", "crates/data/src/arena.rs", "src/"];

/// Panicking constructs. `.unwrap_or*` and `.expect_err` do not match;
/// `debug_assert!` is allowed (stripped in release builds). A token that
/// starts with a letter matches only at a word boundary, so `println!`
/// does not catch `eprintln!`.
const BANNED: &[(&str, &str)] = &[
    (".unwrap()", "propagate the error (`?`) or rewrite to be visibly infallible"),
    (".expect(", "propagate the error (`?`) instead of panicking with a message"),
    ("panic!", "return an error; the CLI contract is exit-1 with a message"),
    ("unreachable!", "return an error; unreachable states should be typed away"),
    ("todo!", "unfinished code must not ship on a production path"),
    ("unimplemented!", "unfinished code must not ship on a production path"),
    ("print!", "write through a fallible writer; a closed stdout must not panic"),
    ("println!", "write through a fallible writer; a closed stdout must not panic"),
];

/// Whether `code` contains `tok` starting at a token boundary.
fn mentions(code: &str, tok: &str) -> bool {
    code.match_indices(tok).any(|(at, _)| {
        !tok.starts_with(char::is_alphabetic)
            || !code[..at].ends_with(|c: char| c.is_alphanumeric() || c == '_')
    })
}

pub fn in_scope(rel: &str) -> bool {
    SCOPE.iter().any(|p| rel.starts_with(p))
}

pub fn check(sf: &SourceFile) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for i in 0..sf.len() {
        if sf.is_test[i] || sf.allows(i, NAME) {
            continue;
        }
        for (tok, fix) in BANNED {
            if mentions(&sf.code[i], tok) {
                diags.push(Diagnostic::new(
                    &sf.rel,
                    i + 1,
                    NAME,
                    format!("`{}` on a production path: {fix}", tok.trim_end_matches('(')),
                ));
            }
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diags(src: &str) -> Vec<Diagnostic> {
        check(&SourceFile::from_text("crates/net/src/x.rs", src))
    }

    #[test]
    fn flags_unwrap_expect_panic() {
        let got = diags("let x = y.unwrap();\nlet z = w.expect(\"boom\");\npanic!(\"no\");\n");
        assert_eq!(got.len(), 3);
        assert_eq!((got[0].line, got[1].line, got[2].line), (1, 2, 3));
    }

    #[test]
    fn unwrap_or_family_is_fine() {
        assert!(diags("let x = y.unwrap_or(0);\nlet z = w.unwrap_or_else(|| 1);\nlet q = r.unwrap_or_default();\n").is_empty());
    }

    #[test]
    fn tests_and_allows_are_exempt() {
        let src = "// lint: allow(panic-policy) — poisoned mutex is unrecoverable\nlet g = m.lock().unwrap();\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\n";
        assert!(diags(src).is_empty());
    }

    #[test]
    fn stdout_macros_are_flagged_and_stderr_ones_are_not() {
        let got = diags("println!(\"{report}\");\nprint!(\"x\");\nstd::println!();\n");
        assert_eq!(got.len(), 3, "{got:?}");
        assert!(got[0].msg.contains("`println!`") && got[1].msg.contains("`print!`"));
        assert!(diags("eprintln!(\"listening\");\neprint!(\"x\");\n").is_empty());
    }

    #[test]
    fn scope_covers_net_and_cli() {
        assert!(in_scope("crates/net/src/transport.rs"));
        assert!(in_scope("src/bin/ptf.rs"));
        assert!(in_scope("crates/data/src/arena.rs"));
        assert!(!in_scope("crates/data/src/scale.rs"));
        assert!(!in_scope("crates/models/src/mf.rs"));
        assert!(!in_scope("crates/net/tests/loopback_parity.rs"));
    }
}
