//! Diagnostics and the lint registry.
//!
//! Every finding is one [`Diagnostic`] rendered as `file:line: [lint]
//! message` — greppable, editor-clickable, and stable enough for the
//! fixture tests to assert on exactly.

use std::fmt;

/// One lint finding, anchored to a workspace-relative file and 1-based
/// line. Ordering is (file, line, lint, msg) so reports read top-down
/// per file.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    pub file: String,
    pub line: usize,
    pub lint: &'static str,
    pub msg: String,
}

impl Diagnostic {
    pub fn new(file: &str, line: usize, lint: &'static str, msg: String) -> Self {
        Self { file: file.to_string(), line, lint, msg }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.lint, self.msg)
    }
}

/// Names of the enforced lints plus the "why" shown by `--explain`.
pub const LINTS: &[(&str, &str)] = &[
    (
        "determinism",
        "The repo's headline guarantee is that a run is bit-identical at any \
thread count and across processes (PR 3): every RNG must be derived from the \
run seed via `derive_seed`/`RngStream`, and no protocol/round/model code may \
observe wall-clock time or iterate a `HashMap`/`HashSet` (std hash order is \
seeded per process, so iteration order silently differs across runs — float \
reductions or graph construction over it diverge traces). Use sorted \
collections (`BTreeMap`, sorted `Vec`) where order can reach an observable \
value, or annotate a provably order-independent site with \
`// lint: allow(determinism) — <why>`.",
    ),
    (
        "alloc-discipline",
        "The round hot path performs zero steady-state heap allocations, \
proven at runtime by `CountingAlloc` in tests/hot_path.rs — but only for the \
shapes those tests run. This lint gives the proof static coverage: functions \
declared hot in crates/lint/hot_paths.toml may not contain allocating \
constructs (`Vec::new`, `vec!`, `with_capacity`, `.collect`, `.to_vec`, \
`format!`, `.clone()`, ...). Move allocation to setup/scratch construction, \
or annotate a cold branch with `// lint: allow(alloc-discipline) — <why>`.",
    ),
    (
        "panic-policy",
        "`ptf-net` servers and the CLI are deployment surfaces: a panic tears \
down a fleet's round loop, while the PR 7 error contract is exit-1 with a \
message. Production paths in crates/net/src and src/ must propagate errors \
(`?`, `Result`) instead of `unwrap()`/`expect()`/`panic!` — and write to \
stdout through a fallible writer, not `print!`/`println!`, which panic when \
stdout is a closed pipe or a full disk (`eprint!`/`eprintln!` stay allowed). \
Test modules are exempt. Truly infallible cases (e.g. a fixed-size slice-to-array conversion) \
should be rewritten to be visibly infallible, or annotated with \
`// lint: allow(panic-policy) — <why>`.",
    ),
    (
        "unsafe-audit",
        "Every `unsafe` site must carry an adjacent `// SAFETY:` comment \
stating the invariant that makes it sound, and be listed with a matching \
site count in docs/unsafe-inventory.md, so the unsafe surface is reviewable \
in one place and silent growth is caught as inventory drift. The allocator \
shim (CountingAlloc) is the canonical entry. Runtime instruction-set dispatch \
stays at one point: `#[target_feature]` and `is_x86_feature_detected!` may \
appear in non-test code only in crates/tensor/src/isa.rs; elsewhere, run the \
code under `ptf_tensor::isa::dispatch`.",
    ),
    (
        "spec-conformance",
        "Normative docs must match the code they describe: the frame-kind \
table in docs/wire-protocol.md must equal the `FrameKind` enum in \
crates/net/src/wire.rs (name and discriminant, both directions). Drift in \
either direction is an error — fix the doc or the code, never ignore. (The \
README's `ptf` usage block and flags are held to the CLI's command table by \
the tests in src/cli.rs.)",
    ),
];

/// Looks up the explanation for `--explain <name>`.
pub fn explain(name: &str) -> Option<&'static str> {
    LINTS.iter().find(|(n, _)| *n == name).map(|(_, e)| *e)
}
