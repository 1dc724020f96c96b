//! Parsers for the original dataset formats.
//!
//! Experiments default to the synthetic presets, but users who have the
//! real dumps can load them here:
//!
//! * [`parse_movielens_100k`] — tab-separated `user \t item \t rating \t ts`
//!   (the `u.data` file). Ratings are binarized (any rating counts as an
//!   interaction, as the paper "transform\[s\] all positive ratings to 1").
//! * [`parse_pairs_csv`] — generic `user,item` CSV with optional header,
//!   covering the common Steam-200K / Gowalla exports.
//!
//! Ids in the source files are arbitrary; both parsers reindex users and
//! items densely in first-appearance order.

use crate::dataset::Dataset;
use std::collections::HashMap;

/// Errors produced while parsing dataset files.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// A line did not have enough columns.
    MissingColumn { line: usize },
    /// A column could not be parsed as an id.
    BadField { line: usize, field: String },
    /// The file contained no interactions.
    Empty,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::MissingColumn { line } => write!(f, "line {line}: missing column"),
            ParseError::BadField { line, field } => {
                write!(f, "line {line}: cannot parse id from {field:?}")
            }
            ParseError::Empty => write!(f, "no interactions found"),
        }
    }
}

impl std::error::Error for ParseError {}

/// Densely reindexes raw ids in first-appearance order.
#[derive(Default)]
struct Reindexer {
    map: HashMap<String, u32>,
}

impl Reindexer {
    /// Resolves a raw id, allocating only on first appearance.
    fn resolve(&mut self, raw: &str) -> u32 {
        if let Some(&id) = self.map.get(raw) {
            return id;
        }
        let id = self.map.len() as u32;
        self.map.insert(raw.to_string(), id);
        id
    }

    fn len(&self) -> usize {
        self.map.len()
    }
}

fn build(
    name: &str,
    pairs: Vec<(u32, u32)>,
    users: usize,
    items: usize,
) -> Result<Dataset, ParseError> {
    if pairs.is_empty() {
        return Err(ParseError::Empty);
    }
    // the counting-sort CSR constructor assembles the arena in one pass
    Ok(Dataset::from_pairs(name, users, items, pairs))
}

/// Parses MovieLens-100K `u.data` content (`user \t item \t rating \t ts`).
pub fn parse_movielens_100k(name: &str, content: &str) -> Result<Dataset, ParseError> {
    let mut users = Reindexer::default();
    let mut items = Reindexer::default();
    let mut pairs = Vec::with_capacity(content.lines().size_hint().0);
    for (lineno, line) in content.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let mut cols = line.split_whitespace();
        let user = cols.next().ok_or(ParseError::MissingColumn { line: lineno + 1 })?;
        let item = cols.next().ok_or(ParseError::MissingColumn { line: lineno + 1 })?;
        for field in [user, item] {
            if field.parse::<u64>().is_err() {
                return Err(ParseError::BadField { line: lineno + 1, field: field.to_string() });
            }
        }
        pairs.push((users.resolve(user), items.resolve(item)));
    }
    build(name, pairs, users.len(), items.len())
}

/// Parses `user,item[,...]` CSV content; a non-numeric first row is treated
/// as a header and skipped.
pub fn parse_pairs_csv(name: &str, content: &str) -> Result<Dataset, ParseError> {
    let mut users = Reindexer::default();
    let mut items = Reindexer::default();
    let mut pairs = Vec::new();
    for (lineno, line) in content.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let mut cols = line.split(',').map(str::trim);
        let user = cols.next().ok_or(ParseError::MissingColumn { line: lineno + 1 })?;
        let item = cols.next().ok_or(ParseError::MissingColumn { line: lineno + 1 })?;
        if lineno == 0 && (user.parse::<u64>().is_err() || item.parse::<u64>().is_err()) {
            continue; // header
        }
        if user.is_empty() || item.is_empty() {
            return Err(ParseError::MissingColumn { line: lineno + 1 });
        }
        pairs.push((users.resolve(user), items.resolve(item)));
    }
    build(name, pairs, users.len(), items.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn movielens_roundtrip() {
        let content = "196\t242\t3\t881250949\n186\t302\t3\t891717742\n196\t377\t1\t878887116\n";
        let d = parse_movielens_100k("ml", content).unwrap();
        assert_eq!(d.num_users(), 2);
        assert_eq!(d.num_items(), 3);
        assert_eq!(d.num_interactions(), 3);
        // user 196 → 0 with items 242→0, 377→2
        assert_eq!(d.user_items(0), &[0, 2]);
    }

    #[test]
    fn movielens_rejects_garbage() {
        let err = parse_movielens_100k("ml", "abc\tdef\t3\t0\n").unwrap_err();
        assert!(matches!(err, ParseError::BadField { line: 1, .. }));
    }

    #[test]
    fn movielens_rejects_short_line() {
        let err = parse_movielens_100k("ml", "196\n").unwrap_err();
        assert_eq!(err, ParseError::MissingColumn { line: 1 });
    }

    #[test]
    fn csv_with_header() {
        let content = "user_id,item_id\n10,20\n10,21\n11,20\n";
        let d = parse_pairs_csv("csv", content).unwrap();
        assert_eq!(d.num_users(), 2);
        assert_eq!(d.num_items(), 2);
        assert_eq!(d.num_interactions(), 3);
    }

    #[test]
    fn csv_without_header() {
        let d = parse_pairs_csv("csv", "1,2\n3,4\n").unwrap();
        assert_eq!(d.num_users(), 2);
        assert_eq!(d.num_interactions(), 2);
    }

    #[test]
    fn empty_input_errors() {
        assert_eq!(parse_pairs_csv("csv", "\n\n").unwrap_err(), ParseError::Empty);
    }

    #[test]
    fn duplicate_interactions_collapse() {
        let d = parse_pairs_csv("csv", "1,2\n1,2\n1,2\n").unwrap();
        assert_eq!(d.num_interactions(), 1);
    }

    #[test]
    fn lone_headers_and_oversized_ids_are_errors() {
        assert_eq!(parse_pairs_csv("csv", "user_id,item_id\n").unwrap_err(), ParseError::Empty);
        assert_eq!(parse_pairs_csv("csv", "user_id,item_id").unwrap_err(), ParseError::Empty);
        // u64::MAX is an id; one past it is not
        assert!(parse_movielens_100k("ml", "18446744073709551615\t1\n").is_ok());
        let err = parse_movielens_100k("ml", "18446744073709551616\t1\n").unwrap_err();
        assert!(matches!(err, ParseError::BadField { line: 1, .. }));
    }

    /// Fragments the arbitrary inputs are spliced from: ids of every
    /// width up to one past `u64::MAX`, junk fields, and the separators
    /// of both formats.
    const PIECES: [&str; 22] = [
        "0",
        "7",
        "196",
        "4294967296",
        "18446744073709551615",
        "18446744073709551616",
        "99999999999999999999",
        "-1",
        "+3",
        "1.5",
        "abc",
        "user_id",
        "item_id",
        "é",
        "\t",
        " ",
        ",",
        ",,",
        "\n",
        "\r\n",
        "\n\n",
        "\u{feff}",
    ];

    /// Arbitrary text built from [`PIECES`] and raw characters, cut at an
    /// arbitrary char boundary, so the last line may be truncated.
    fn arbitrary_text() -> impl proptest::Strategy<Value = String> {
        use proptest::Strategy;
        let piece = (0usize..PIECES.len() + 4, proptest::prelude::any::<u32>());
        (proptest::collection::vec(piece, 0..40), 0usize..1000).prop_map(|(pieces, cut)| {
            let mut text = String::new();
            for (at, raw) in pieces {
                match PIECES.get(at) {
                    Some(p) => text.push_str(p),
                    None => text.push(char::from_u32(raw % 0x3000).unwrap_or('?')),
                }
            }
            let cut = (0..=text.len()).rev().find(|&c| c <= cut && text.is_char_boundary(c));
            text.truncate(cut.unwrap_or(0));
            text
        })
    }

    /// A parsed dataset holds at least one interaction and no more than
    /// the input has lines, and never more users or items than that.
    fn well_formed(d: &Dataset, text: &str) -> bool {
        let lines = text.lines().count();
        (1..=lines).contains(&d.num_interactions())
            && d.num_users() <= lines
            && d.num_items() <= lines
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        /// Neither loader panics on any input: each parses it or returns
        /// a [`ParseError`].
        #[test]
        fn loaders_parse_or_reject_arbitrary_text(text in arbitrary_text()) {
            match parse_movielens_100k("ml", &text) {
                Ok(d) => proptest::prop_assert!(well_formed(&d, &text), "{text:?}"),
                Err(ParseError::Empty) => {}
                Err(ParseError::MissingColumn { line } | ParseError::BadField { line, .. }) => {
                    proptest::prop_assert!((1..=text.lines().count()).contains(&line), "{text:?}")
                }
            }
            match parse_pairs_csv("csv", &text) {
                Ok(d) => proptest::prop_assert!(well_formed(&d, &text), "{text:?}"),
                Err(ParseError::Empty) => {}
                Err(ParseError::MissingColumn { line } | ParseError::BadField { line, .. }) => {
                    proptest::prop_assert!((1..=text.lines().count()).contains(&line), "{text:?}")
                }
            }
        }
    }
}
