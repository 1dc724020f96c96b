//! ptf-lint: the workspace invariant checker.
//!
//! A dependency-free, tidy-style static analyzer that walks every
//! first-party `.rs` file and enforces the repo's cross-cutting
//! invariants with `file:line` diagnostics:
//!
//! - **determinism** — no entropy-seeded RNGs, wall-clock reads, or
//!   hash-order iteration in protocol/round/model code;
//! - **alloc-discipline** — no allocating constructs in functions
//!   declared hot in `crates/lint/hot_paths.toml`;
//! - **panic-policy** — no `unwrap()`/`expect()`/`panic!`, and no
//!   `print!`/`println!`, on `ptf-net` and CLI production paths;
//! - **unsafe-audit** — every `unsafe` has a `// SAFETY:` comment and a
//!   matching entry in `docs/unsafe-inventory.md`;
//! - **spec-conformance** — the wire-protocol doc's frame-kind table
//!   matches the `FrameKind` enum.
//!
//! Run it with `cargo run -p ptf-lint`; see `--explain <lint>` for the
//! rationale behind any family, and `// lint: allow(<name>) — why` to
//! suppress a justified finding at one site.

pub mod config;
pub mod diag;
pub mod lints;
pub mod source;
pub mod walk;

use diag::Diagnostic;
use source::SourceFile;
use std::collections::BTreeMap;
use std::path::Path;

/// Everything one run produces.
pub struct Report {
    pub diags: Vec<Diagnostic>,
    pub files_scanned: usize,
    pub unsafe_sites: usize,
}

/// Runs every lint over the workspace at `root`. `Err` is an
/// infrastructure failure (unreadable file, bad config) as opposed to
/// lint findings, which land in the report.
pub fn run_all(root: &Path) -> Result<Report, String> {
    let files = walk::rust_files(root)?;
    let hot_paths = config::load_hot_paths(&root.join("crates/lint/hot_paths.toml"))?;
    for entry in &hot_paths {
        if !files.contains(&entry.path) {
            return Err(format!("hot_paths.toml: {} is not a workspace .rs file", entry.path));
        }
    }

    let mut diags = Vec::new();
    let mut unsafe_counts: BTreeMap<String, usize> = BTreeMap::new();
    for rel in &files {
        let sf = SourceFile::load(root, rel)?;
        if lints::determinism::in_scope(rel) {
            diags.extend(lints::determinism::check(&sf));
        }
        if lints::panic_policy::in_scope(rel) {
            diags.extend(lints::panic_policy::check(&sf));
        }
        for entry in hot_paths.iter().filter(|e| e.path == *rel) {
            diags.extend(lints::alloc_discipline::check(&sf, entry));
        }
        let (unsafe_diags, sites) = lints::unsafe_audit::check(&sf);
        diags.extend(unsafe_diags);
        if sites > 0 {
            unsafe_counts.insert(rel.clone(), sites);
        }
    }

    let inventory_path = root.join("docs/unsafe-inventory.md");
    if inventory_path.is_file() {
        let inv = lints::unsafe_audit::load_inventory(&inventory_path)?;
        diags.extend(lints::unsafe_audit::inventory_drift(&unsafe_counts, &inv));
    } else if !unsafe_counts.is_empty() {
        diags.push(Diagnostic::new(
            "docs/unsafe-inventory.md",
            1,
            lints::unsafe_audit::NAME,
            format!(
                "missing inventory but the workspace has {} unsafe site(s)",
                unsafe_counts.values().sum::<usize>()
            ),
        ));
    }

    diags.extend(lints::spec::check(root)?);

    diags.sort();
    diags.dedup();
    Ok(Report { diags, files_scanned: files.len(), unsafe_sites: unsafe_counts.values().sum() })
}

/// The workspace root this binary was built in: `crates/lint/../..`.
/// Overridable with `--root` so the fixture tests can point the full
/// pipeline at synthetic trees.
pub fn default_root() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").components().collect()
}
