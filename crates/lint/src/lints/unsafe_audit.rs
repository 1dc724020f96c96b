//! Unsafe audit: every `unsafe` site needs an adjacent `// SAFETY:`
//! comment, and the file must be inventoried in
//! `docs/unsafe-inventory.md` with a matching site count.
//!
//! Runtime instruction-set dispatch is the one `unsafe` on an algorithmic
//! path, so its constructs — a `#[target_feature]` function and the
//! `is_x86_feature_detected!` check that guards a call into one — may
//! appear in non-test code only in `crates/tensor/src/isa.rs`. A second
//! dispatch point would be a second place where a missing check means
//! SIGILL.
//!
//! The inventory makes the entire unsafe surface reviewable in one
//! place; the count check turns silent growth (or a stale entry after a
//! removal) into a lint failure. Unlike the behavioral lints, test code
//! is *not* exempt — unsoundness does not care where it runs.

use crate::diag::Diagnostic;
use crate::source::{tokens, SourceFile};
use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

pub const NAME: &str = "unsafe-audit";

/// The one file allowed to select an instruction set at run time.
const DISPATCH_FILE: &str = "crates/tensor/src/isa.rs";

/// The constructs of a dispatch point, matched on whitespace-free code.
const DISPATCH_TOKENS: &[&str] = &["#[target_feature", "is_x86_feature_detected!"];

/// Parsed `docs/unsafe-inventory.md`: file → declared site count.
pub type Inventory = BTreeMap<String, usize>;

/// Checks one file's `unsafe` sites for SAFETY comments and its
/// non-test code for dispatch constructs outside `DISPATCH_FILE`, and
/// returns the diagnostics plus the number of `unsafe` sites found (for
/// the inventory check).
pub fn check(sf: &SourceFile) -> (Vec<Diagnostic>, usize) {
    let mut diags = Vec::new();
    let mut sites = 0usize;
    let test_file = sf.rel.starts_with("tests/") || sf.rel.contains("/tests/");
    for i in 0..sf.len() {
        if sf.rel != DISPATCH_FILE && !test_file && !sf.is_test[i] && !sf.allows(i, NAME) {
            let squashed: String = sf.code[i].chars().filter(|c| !c.is_whitespace()).collect();
            for tok in DISPATCH_TOKENS.iter().filter(|t| squashed.contains(*t)) {
                diags.push(Diagnostic::new(
                    &sf.rel,
                    i + 1,
                    NAME,
                    format!(
                        "`{tok}` outside {DISPATCH_FILE}: run the code under \
                         `ptf_tensor::isa::dispatch` instead of adding a second dispatch point"
                    ),
                ));
            }
        }
        let n = tokens(&sf.code[i]).iter().filter(|t| *t == "unsafe").count();
        if n == 0 {
            continue;
        }
        sites += n;
        if !sf.has_safety_comment(i) && !sf.allows(i, NAME) {
            diags.push(Diagnostic::new(
                &sf.rel,
                i + 1,
                NAME,
                "`unsafe` without an adjacent `// SAFETY:` comment stating the invariant \
                 that makes it sound"
                    .to_string(),
            ));
        }
    }
    (diags, sites)
}

/// Loads the inventory table. Rows look like
/// `| crates/tensor/src/alloc.rs | 5 | why |`; non-numeric second cells
/// (header, separator) are skipped.
pub fn load_inventory(path: &Path) -> Result<Inventory, String> {
    let text =
        fs::read_to_string(path).map_err(|e| format!("{}: cannot read: {e}", path.display()))?;
    Ok(parse_inventory(&text))
}

pub fn parse_inventory(text: &str) -> Inventory {
    let mut inv = Inventory::new();
    for line in text.lines() {
        let line = line.trim();
        if !line.starts_with('|') {
            continue;
        }
        let cells: Vec<&str> = line.trim_matches('|').split('|').map(str::trim).collect();
        if cells.len() < 2 {
            continue;
        }
        let file = cells[0].trim_matches('`');
        if let Ok(count) = cells[1].parse::<usize>() {
            inv.insert(file.to_string(), count);
        }
    }
    inv
}

/// Compares counted sites against the inventory, both directions.
pub fn inventory_drift(counts: &BTreeMap<String, usize>, inv: &Inventory) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for (file, &n) in counts {
        match inv.get(file) {
            None => diags.push(Diagnostic::new(
                file,
                1,
                NAME,
                format!("{n} unsafe site(s) but no entry in docs/unsafe-inventory.md"),
            )),
            Some(&m) if m != n => diags.push(Diagnostic::new(
                file,
                1,
                NAME,
                format!("{n} unsafe site(s) but docs/unsafe-inventory.md declares {m} — update the inventory"),
            )),
            Some(_) => {}
        }
    }
    for (file, &m) in inv {
        if !counts.contains_key(file) {
            diags.push(Diagnostic::new(
                "docs/unsafe-inventory.md",
                1,
                NAME,
                format!("stale entry: {file} declares {m} unsafe site(s) but the file has none"),
            ));
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn documented_unsafe_passes_undocumented_fails() {
        let src = "// SAFETY: delegates to System\nunsafe impl A for B {}\n\nfn f() {\n    let p = unsafe { q.add(1) };\n}\n";
        let (diags, sites) = check(&SourceFile::from_text("x.rs", src));
        assert_eq!(sites, 2);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].line, 5);
    }

    #[test]
    fn dispatch_constructs_are_confined_to_the_isa_module() {
        let src = "#[target_feature(enable = \"avx2\")]\nfn v3() {}\nfn f() -> bool {\n    std::is_x86_feature_detected!(\"fma\")\n}\n#[cfg(test)]\nmod tests {\n    fn t() -> bool { is_x86_feature_detected!(\"avx2\") }\n}\n";
        let (diags, _) = check(&SourceFile::from_text("crates/models/src/x.rs", src));
        assert_eq!(diags.iter().map(|d| d.line).collect::<Vec<_>>(), vec![1, 4], "{diags:?}");
        assert!(check(&SourceFile::from_text(DISPATCH_FILE, src)).0.is_empty());
        assert!(check(&SourceFile::from_text("crates/tensor/tests/x.rs", src)).0.is_empty());
    }

    #[test]
    fn inventory_drift_is_caught_both_ways() {
        let inv = parse_inventory(
            "| file | sites | why |\n|---|---:|---|\n| a.rs | 2 | x |\n| gone.rs | 1 | y |\n",
        );
        let mut counts = BTreeMap::new();
        counts.insert("a.rs".to_string(), 3); // count mismatch
        counts.insert("new.rs".to_string(), 1); // unlisted
        let diags = inventory_drift(&counts, &inv);
        assert_eq!(diags.len(), 3, "{diags:?}");
    }

    #[test]
    fn matching_inventory_is_clean() {
        let inv = parse_inventory("| `a.rs` | 2 | x |\n");
        let mut counts = BTreeMap::new();
        counts.insert("a.rs".to_string(), 2);
        assert!(inventory_drift(&counts, &inv).is_empty());
    }
}
