//! Determinism lints: no entropy, no wall clock, no environment reads,
//! no hash-order iteration in protocol/round/model code.
//!
//! The invariant: a run is a pure function of its config — the only
//! RNGs are `derive_seed`/`RngStream`-derived streams, no setting comes
//! from the environment behind the config's back, and nothing
//! order-unstable feeds an observable value. `HashMap`/`HashSet`
//! *lookups* are fine; *iteration* is not, because std's hash seed
//! differs per process, so iteration order silently reshuffles float
//! reductions and graph construction between two otherwise identical
//! runs.

use crate::diag::Diagnostic;
use crate::source::{tokens, SourceFile};

pub const NAME: &str = "determinism";

/// Crates whose sources are protocol/round/model code. `crates/net` is
/// deliberately absent (its deadline machinery *is* wall-clock time and
/// affects only straggler drops, which the parity suite pins as
/// equivalent to unsampled clients), as are the benches.
const SCOPE: &[&str] = &[
    "crates/core/src/",
    "crates/federated/src/",
    "crates/baselines/src/",
    "crates/models/src/",
    "crates/comm/src/",
    "crates/data/src/",
    "crates/tensor/src/",
    "crates/metrics/src/",
    "crates/privacy/src/",
];

/// Tokens that read entropy, the wall clock or the environment
/// (`env::var` also matches `env::var_os` and `env::vars`).
const BANNED: &[(&str, &str)] = &[
    ("thread_rng", "entropy-seeded RNG; derive one via `derive_seed`/`RngStream` instead"),
    ("from_entropy", "entropy-seeded RNG; derive one via `derive_seed`/`RngStream` instead"),
    ("rand::random", "entropy-seeded RNG; derive one via `derive_seed`/`RngStream` instead"),
    ("SystemTime", "wall-clock read; runs must be pure functions of their config"),
    ("Instant::now", "wall-clock read; runs must be pure functions of their config"),
    (
        "env::var",
        "ambient configuration: a run must be a pure function of its config; \
         take the value as a parameter",
    ),
];

/// Methods that observe a hash collection's iteration order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
    "retain",
];

pub fn in_scope(rel: &str) -> bool {
    SCOPE.iter().any(|p| rel.starts_with(p))
}

pub fn check(sf: &SourceFile) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let hash_names = hash_bindings(sf);
    for i in 0..sf.len() {
        if sf.is_test[i] || sf.allows(i, NAME) {
            continue;
        }
        let code = &sf.code[i];
        for (tok, why) in BANNED {
            if code.contains(tok) {
                diags.push(Diagnostic::new(&sf.rel, i + 1, NAME, format!("`{tok}`: {why}")));
            }
        }
        for name in &hash_names {
            if for_loop_iterates(code, name) {
                diags.push(iter_diag(sf, i, name));
            }
        }
    }
    // `name.iter()` calls, found on a flat cross-line token stream so
    // multi-line method chains (`self\n.edges\n.iter()`) still match.
    let stream: Vec<(usize, String)> = sf
        .code
        .iter()
        .enumerate()
        .flat_map(|(line, text)| tokens(text).into_iter().map(move |t| (line, t)))
        .collect();
    for idx in 0..stream.len() {
        let (line, tok) = &stream[idx];
        if !hash_names.contains(tok) {
            continue;
        }
        let is_iter_call = stream.get(idx + 1).map(|(_, t)| t.as_str()) == Some(".")
            && stream.get(idx + 2).is_some_and(|(_, t)| ITER_METHODS.contains(&t.as_str()))
            && stream.get(idx + 3).map(|(_, t)| t.as_str()) == Some("(");
        if !is_iter_call {
            continue;
        }
        let method_line = stream[idx + 2].0;
        let exempt = [*line, method_line].iter().any(|&l| sf.is_test[l] || sf.allows(l, NAME));
        if !exempt {
            diags.push(iter_diag(sf, *line, tok));
        }
    }
    diags
}

fn iter_diag(sf: &SourceFile, line: usize, name: &str) -> Diagnostic {
    Diagnostic::new(
        &sf.rel,
        line + 1,
        NAME,
        format!(
            "iteration over hash collection `{name}`: std hash order is \
             process-seeded; use a sorted collection or annotate an \
             order-independent use with `lint: allow({NAME})`"
        ),
    )
}

/// Collects identifiers bound to a `HashMap`/`HashSet` anywhere in the
/// file: struct fields, lets, params, and struct-literal fields. A
/// tidy-style heuristic — names, not types — so shadowing across
/// functions is merged; allow-annotations cover the rare false hit.
fn hash_bindings(sf: &SourceFile) -> Vec<String> {
    let mut names = Vec::new();
    for code in &sf.code {
        if !code.contains("HashMap") && !code.contains("HashSet") {
            continue;
        }
        let toks = tokens(code);
        for (idx, t) in toks.iter().enumerate() {
            if t != "HashMap" && t != "HashSet" {
                continue;
            }
            if let Some(name) = binding_before(&toks, idx) {
                if !names.contains(&name) {
                    names.push(name);
                }
            }
        }
    }
    names
}

/// Walks left from a `HashMap`/`HashSet` token to the identifier it is
/// bound to (`name: Hash…`, `name: &mut Hash…`, `let [mut] name = Hash…`,
/// `name: path::to::Hash…`). Returns `None` for unbound positions
/// (return types, generics, `use` lines).
fn binding_before(toks: &[String], mut i: usize) -> Option<String> {
    // skip the `path::to::` prefix
    while i >= 2 && toks[i - 1] == "::" {
        i -= 2;
    }
    if i == 0 {
        return None;
    }
    let mut j = i - 1;
    // skip reference/mutability noise between `:` and the type
    while j > 0 && (toks[j] == "&" || toks[j] == "mut" || toks[j] == "'") {
        j -= 1;
    }
    match toks[j].as_str() {
        ":" if j >= 1 && is_ident(&toks[j - 1]) => Some(toks[j - 1].clone()),
        "=" => {
            // `let [mut] name = HashMap::new()`
            let mut k = j;
            while k > 0 {
                k -= 1;
                if toks[k] == "let" {
                    let name_at = if toks.get(k + 1).map(String::as_str) == Some("mut") {
                        k + 2
                    } else {
                        k + 1
                    };
                    return toks.get(name_at).filter(|t| is_ident(t)).cloned();
                }
            }
            None
        }
        _ => None,
    }
}

fn is_ident(t: &str) -> bool {
    t.chars().next().is_some_and(|c| c.is_alphabetic() || c == '_')
}

/// Does this code line `for`-iterate the hash collection bound to
/// `name` directly (without a method call)?
fn for_loop_iterates(code: &str, name: &str) -> bool {
    // `for x in [&[mut]] [recv.]*name {` — the whole collection as the
    // iterated expression (explicit `.iter()`-family calls are handled
    // by the token-stream scan, and `name.len()`-style field reads do
    // not match).
    if let Some(pos) = code.find(" in ") {
        if code.contains("for ") {
            let mut tail =
                code[pos + 4..].trim_start().trim_start_matches("&mut ").trim_start_matches('&');
            // strip any receiver chain (`self.`, `s.state.`)
            while let Some(dot) = tail.find('.') {
                let recv = &tail[..dot];
                let after = tail[dot + 1..].chars().next();
                let is_recv = !recv.is_empty()
                    && recv != name
                    && recv.chars().all(|c| c.is_alphanumeric() || c == '_')
                    && after.is_some_and(|c| c.is_alphabetic() || c == '_');
                if !is_recv {
                    break;
                }
                tail = &tail[dot + 1..];
            }
            if let Some(rest) = tail.strip_prefix(name) {
                let next = rest.chars().next();
                if next.is_none() || next == Some(' ') || next == Some('{') {
                    return true;
                }
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diags(src: &str) -> Vec<Diagnostic> {
        check(&SourceFile::from_text("crates/core/src/x.rs", src))
    }

    #[test]
    fn flags_entropy_and_clock_reads() {
        let got = diags("let mut rng = rand::thread_rng();\nlet t = Instant::now();\n");
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].line, 1);
        assert_eq!(got[1].line, 2);
    }

    #[test]
    fn flags_hash_iteration_but_not_lookup() {
        let src = "struct S { edges: HashMap<(u32, u32), f32> }\n\
                   fn f(s: &S) { let _ = s.edges.get(&(0, 0)); }\n\
                   fn g(s: &S) { for (k, v) in &s.edges { drop((k, v)); } }\n\
                   fn h(s: &S) { let _: Vec<_> = s.edges.iter().collect(); }\n";
        let got = diags(src);
        assert_eq!(got.len(), 2, "{got:?}");
        assert_eq!(got[0].line, 3);
        assert_eq!(got[1].line, 4);
    }

    #[test]
    fn allow_annotation_suppresses() {
        let src = "let mut seen = HashSet::new();\n\
                   // lint: allow(determinism) — u64 sum is order-independent\n\
                   let s: u64 = seen.iter().sum();\n";
        assert!(diags(src).is_empty());
    }

    #[test]
    fn test_modules_are_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { let _ = thread_rng(); }\n}\n";
        assert!(diags(src).is_empty());
    }

    #[test]
    fn out_of_scope_files_are_skipped_by_caller() {
        assert!(in_scope("crates/core/src/server.rs"));
        assert!(!in_scope("crates/net/src/server.rs"));
        assert!(!in_scope("crates/bench/benches/table4_communication.rs"));
    }
}
