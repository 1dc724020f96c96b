//! Fixture-based self-tests: every lint family runs against a known-bad
//! and a known-good fixture under `tests/fixtures/`, asserting exact
//! diagnostic counts, anchors, and the `file:line: [lint] message`
//! format — plus the capstone test that the real workspace is clean.
//!
//! The fixture directory is excluded from the workspace walk
//! (`walk::SKIP_PREFIXES`), so the deliberate violations here never leak
//! into a production `ptf-lint` run.

use ptf_lint::config::HotPath;
use ptf_lint::diag::Diagnostic;
use ptf_lint::lints::{alloc_discipline, determinism, panic_policy, spec, unsafe_audit};
use ptf_lint::source::SourceFile;
use std::path::{Path, PathBuf};

fn fixtures() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// Loads a fixture's text but attributes it to `rel` — the lints scope
/// by path, so each fixture is presented as living where its lint looks.
fn fixture_as(name: &str, rel: &str) -> SourceFile {
    let text =
        std::fs::read_to_string(fixtures().join(name)).unwrap_or_else(|e| panic!("{name}: {e}"));
    SourceFile::from_text(rel, &text)
}

fn lines(diags: &[Diagnostic]) -> Vec<usize> {
    diags.iter().map(|d| d.line).collect::<Vec<_>>()
}

#[test]
fn determinism_bad_fixture_yields_exact_findings() {
    let sf = fixture_as("determinism_bad.rs", "crates/core/src/fixture.rs");
    let mut got = determinism::check(&sf);
    got.sort();
    assert_eq!(got.len(), 3, "{got:?}");
    assert_eq!(lines(&got), vec![11, 12, 14]);
    assert!(got[0].msg.contains("Instant::now"));
    assert!(got[1].msg.contains("thread_rng"));
    assert!(got[2].msg.contains("`counts`"));
}

#[test]
fn determinism_good_fixture_is_clean() {
    let sf = fixture_as("determinism_good.rs", "crates/core/src/fixture.rs");
    assert_eq!(determinism::check(&sf), vec![]);
}

#[test]
fn alloc_bad_fixture_flags_only_declared_hot_fns() {
    let sf = fixture_as("alloc_bad.rs", "crates/models/src/fixture.rs");
    let entry = HotPath {
        path: "crates/models/src/fixture.rs".to_string(),
        fns: vec!["hot_fn".to_string()],
        reason: "fixture".to_string(),
    };
    let mut got = alloc_discipline::check(&sf, &entry);
    got.sort();
    assert_eq!(lines(&got), vec![4, 5], "{got:?}");
    assert!(got[0].msg.contains(".to_vec"));
    assert!(got[1].msg.contains("format!"));

    // whole-file mode also reaches the undeclared cold function
    let whole = HotPath { fns: Vec::new(), ..entry };
    assert_eq!(alloc_discipline::check(&sf, &whole).len(), 3);
}

#[test]
fn alloc_good_fixture_is_clean() {
    let sf = fixture_as("alloc_good.rs", "crates/models/src/fixture.rs");
    let entry = HotPath {
        path: "crates/models/src/fixture.rs".to_string(),
        fns: vec!["hot_fn".to_string()],
        reason: "fixture".to_string(),
    };
    assert_eq!(alloc_discipline::check(&sf, &entry), vec![]);
}

#[test]
fn panic_bad_fixture_yields_exact_findings() {
    let sf = fixture_as("panic_bad.rs", "crates/net/src/fixture.rs");
    let mut got = panic_policy::check(&sf);
    got.sort();
    assert_eq!(lines(&got), vec![3, 5, 11], "{got:?}");
    assert!(got[0].msg.contains(".unwrap"));
    assert!(got[1].msg.contains("panic!"));
    assert!(got[2].msg.contains(".expect"));
}

#[test]
fn panic_good_fixture_is_clean() {
    let sf = fixture_as("panic_good.rs", "crates/net/src/fixture.rs");
    assert_eq!(panic_policy::check(&sf), vec![]);
}

#[test]
fn unsafe_fixtures_count_sites_and_require_safety_comments() {
    let (bad_diags, bad_sites) =
        unsafe_audit::check(&fixture_as("unsafe_bad.rs", "crates/tensor/src/fixture.rs"));
    assert_eq!(bad_sites, 1);
    assert_eq!(lines(&bad_diags), vec![3], "{bad_diags:?}");

    let (good_diags, good_sites) =
        unsafe_audit::check(&fixture_as("unsafe_good.rs", "crates/tensor/src/fixture.rs"));
    assert_eq!(good_sites, 1); // still inventoried, just documented
    assert_eq!(good_diags, vec![]);
}

#[test]
fn spec_bad_tree_finds_all_four_drifts() {
    let mut got = spec::check(&fixtures().join("spec_bad")).unwrap();
    got.sort();
    let anchors: Vec<(&str, usize)> = got.iter().map(|d| (d.file.as_str(), d.line)).collect();
    assert_eq!(
        anchors,
        vec![
            ("docs/wire-protocol.md", 1), // Reject undocumented
            ("docs/wire-protocol.md", 8), // Welcome kind mismatch
        ],
        "{got:?}"
    );
}

#[test]
fn spec_good_tree_is_clean() {
    assert_eq!(spec::check(&fixtures().join("spec_good")).unwrap(), vec![]);
}

#[test]
fn diagnostics_render_as_file_line_lint_message() {
    let d = Diagnostic::new("crates/x/src/y.rs", 17, "determinism", "msg text".to_string());
    assert_eq!(d.to_string(), "crates/x/src/y.rs:17: [determinism] msg text");
}

/// The capstone: the real workspace must be clean. This is what makes
/// `cargo test` (tier-1) enforce every invariant ptf-lint checks.
#[test]
fn workspace_is_lint_clean() {
    let report = ptf_lint::run_all(&ptf_lint::default_root()).unwrap();
    assert!(
        report.diags.is_empty(),
        "workspace has lint findings:\n{}",
        report.diags.iter().map(|d| d.to_string()).collect::<Vec<_>>().join("\n")
    );
    assert!(report.files_scanned > 100);
}
