//! On-disk CSR interaction arena: the streaming backend of the
//! scale-synthetic presets.
//!
//! A million-user dataset must never be fully resident — the cohort
//! scheduler reads one user's interaction row at a time, so the arena
//! keeps the whole CSR structure (indptr + indices) in a flat file and
//! serves rows by positioned reads (`pread`): two 8-byte reads locate the
//! row, one read fetches it. Nothing is memory-mapped and nothing beyond
//! the requested row is buffered, so a reader's resident footprint is
//! O(longest row) regardless of dataset size.
//!
//! # File format (version 1, all integers little-endian)
//!
//! ```text
//! offset  size              field
//! 0       8                 magic "PTFARENA"
//! 8       4                 format version (= 1)
//! 12      4                 padding (zero)
//! 16      8                 num_users  (u64)
//! 24      8                 num_items  (u64)
//! 32      8                 nnz        (u64)
//! 40      8·(num_users+1)   indptr     (u64 each, indptr[0] = 0,
//!                                       indptr[num_users] = nnz)
//! …       4·nnz             indices    (u32 each; each row sorted
//!                                       ascending, unique, < num_items)
//! ```
//!
//! The writer holds the indptr vector in memory while generating (8 bytes
//! per user — ~8 MB at one million users, generation-time only); indices
//! stream straight to disk. Readers hold neither.

use std::fs::File;
use std::io::{BufWriter, Seek, SeekFrom, Write};
use std::os::unix::fs::FileExt;
use std::path::Path;

const MAGIC: &[u8; 8] = b"PTFARENA";
const VERSION: u32 = 1;
const HEADER_LEN: u64 = 40;

/// Errors from reading or writing an arena file.
#[derive(Debug)]
pub enum ArenaError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// The file exists but is not a valid arena (wrong magic, truncated,
    /// internally inconsistent).
    Format(String),
}

impl std::fmt::Display for ArenaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "arena i/o error: {e}"),
            Self::Format(msg) => write!(f, "bad arena file: {msg}"),
        }
    }
}

impl std::error::Error for ArenaError {}

impl From<std::io::Error> for ArenaError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

/// Streaming arena writer: row pushes append indices to disk through a
/// buffered writer while the indptr accumulates in memory; [`finish`]
/// seeks back and writes the header + indptr once every row is in.
///
/// [`finish`]: ArenaWriter::finish
pub struct ArenaWriter {
    out: BufWriter<File>,
    num_items: usize,
    /// `indptr[u]` = index offset where user `u`'s row starts.
    indptr: Vec<u64>,
    expected_users: usize,
}

impl ArenaWriter {
    /// Creates (truncating) the arena file for exactly `num_users` rows.
    pub fn create(path: &Path, num_users: usize, num_items: usize) -> Result<Self, ArenaError> {
        if num_users == 0 || num_items == 0 {
            return Err(ArenaError::Format("arena needs at least one user and item".to_string()));
        }
        let file = File::create(path)?;
        let mut out = BufWriter::new(file);
        // reserve the header + indptr region; contents land in finish()
        out.seek(SeekFrom::Start(HEADER_LEN + 8 * (num_users as u64 + 1)))?;
        let mut indptr = Vec::with_capacity(num_users + 1);
        indptr.push(0);
        Ok(Self { out, num_items, indptr, expected_users: num_users })
    }

    /// Appends the next user's interaction row (sorted ascending, unique,
    /// all `< num_items`). Rows must be pushed in user-id order.
    pub fn push_user(&mut self, sorted_items: &[u32]) -> Result<(), ArenaError> {
        if self.indptr.len() > self.expected_users {
            return Err(ArenaError::Format(format!(
                "more rows pushed than the declared {} users",
                self.expected_users
            )));
        }
        let mut prev: Option<u32> = None;
        for &i in sorted_items {
            if (i as usize) >= self.num_items {
                return Err(ArenaError::Format(format!(
                    "item {i} out of range ({} items)",
                    self.num_items
                )));
            }
            if prev.is_some_and(|p| p >= i) {
                return Err(ArenaError::Format("row items must be sorted and unique".to_string()));
            }
            prev = Some(i);
            self.out.write_all(&i.to_le_bytes())?;
        }
        let last = *self.indptr.last().unwrap_or(&0);
        self.indptr.push(last + sorted_items.len() as u64);
        Ok(())
    }

    /// Writes the header and indptr, flushes, and closes the file.
    pub fn finish(mut self) -> Result<(), ArenaError> {
        let pushed = self.indptr.len() - 1;
        if pushed != self.expected_users {
            return Err(ArenaError::Format(format!(
                "{pushed} rows pushed, {} declared",
                self.expected_users
            )));
        }
        let nnz = *self.indptr.last().unwrap_or(&0);
        self.out.seek(SeekFrom::Start(0))?;
        self.out.write_all(MAGIC)?;
        self.out.write_all(&VERSION.to_le_bytes())?;
        self.out.write_all(&0u32.to_le_bytes())?;
        self.out.write_all(&(self.expected_users as u64).to_le_bytes())?;
        self.out.write_all(&(self.num_items as u64).to_le_bytes())?;
        self.out.write_all(&nnz.to_le_bytes())?;
        for &p in &self.indptr {
            self.out.write_all(&p.to_le_bytes())?;
        }
        self.out.flush()?;
        Ok(())
    }
}

/// Read handle over an arena file: validated header in memory, everything
/// else fetched by positioned reads on demand.
pub struct CsrArena {
    file: File,
    num_users: usize,
    num_items: usize,
    nnz: u64,
}

impl CsrArena {
    /// Opens and validates an arena file (header sanity, declared sizes
    /// against the actual file length, final indptr against nnz).
    pub fn open(path: &Path) -> Result<Self, ArenaError> {
        let file = File::open(path)?;
        let mut header = [0u8; HEADER_LEN as usize];
        file.read_exact_at(&mut header, 0).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                ArenaError::Format("file shorter than the arena header".to_string())
            } else {
                ArenaError::Io(e)
            }
        })?;
        if &header[..8] != MAGIC {
            return Err(ArenaError::Format("wrong magic (not an arena file)".to_string()));
        }
        let version = u32::from_le_bytes([header[8], header[9], header[10], header[11]]);
        if version != VERSION {
            return Err(ArenaError::Format(format!(
                "unsupported arena version {version} (reader supports {VERSION})"
            )));
        }
        let (num_users, num_items, nnz) =
            (u64_at(&header, 16), u64_at(&header, 24), u64_at(&header, 32));
        if num_users == 0 || num_items == 0 {
            return Err(ArenaError::Format("empty user or item space".to_string()));
        }
        if num_users > u32::MAX as u64 || num_items > u32::MAX as u64 {
            return Err(ArenaError::Format("user or item space exceeds u32 ids".to_string()));
        }
        // num_users fits a u32, so only a crafted nnz can overflow this
        let expect_len = nnz
            .checked_mul(4)
            .and_then(|indices| indices.checked_add(HEADER_LEN + 8 * (num_users + 1)))
            .ok_or_else(|| ArenaError::Format(format!("nnz {nnz} overflows the file length")))?;
        let actual_len = file.metadata()?.len();
        if actual_len < expect_len {
            return Err(ArenaError::Format(format!(
                "truncated: {actual_len} bytes, header declares {expect_len}"
            )));
        }
        let arena =
            Self { file, num_users: num_users as usize, num_items: num_items as usize, nnz };
        let (first, last) = (arena.indptr_at(0)?, arena.indptr_at(num_users as usize)?);
        if first != 0 || last != nnz {
            return Err(ArenaError::Format(format!(
                "indptr endpoints ({first}, {last}) disagree with nnz {nnz}"
            )));
        }
        Ok(arena)
    }

    pub fn num_users(&self) -> usize {
        self.num_users
    }

    pub fn num_items(&self) -> usize {
        self.num_items
    }

    /// Total interaction count.
    pub fn nnz(&self) -> u64 {
        self.nnz
    }

    /// The ids of users with at least one interaction, ascending — the
    /// cohort scheduler's trainable set. One buffered sequential sweep
    /// over the indptr region (8 KB resident), never the indices.
    pub fn nonempty_users(&self) -> Result<Vec<u32>, ArenaError> {
        let mut out = Vec::new();
        let mut buf = [0u8; 8192];
        let mut prev: Option<u64> = None;
        let mut entry = 0usize; // next indptr entry to decode
        let total = self.num_users + 1;
        while entry < total {
            let want = ((total - entry) * 8).min(buf.len());
            let at = HEADER_LEN + 8 * entry as u64;
            self.file.read_exact_at(&mut buf[..want], at)?;
            for chunk in buf[..want].chunks_exact(8) {
                let p = u64_at(chunk, 0);
                if let Some(prev) = prev {
                    if p < prev {
                        return Err(ArenaError::Format(format!(
                            "indptr not monotone at entry {entry}"
                        )));
                    }
                    if p > prev {
                        out.push((entry - 1) as u32);
                    }
                }
                prev = Some(p);
                entry += 1;
            }
        }
        Ok(out)
    }

    fn indptr_at(&self, u: usize) -> Result<u64, ArenaError> {
        let mut buf = [0u8; 8];
        self.file.read_exact_at(&mut buf, HEADER_LEN + 8 * u as u64)?;
        Ok(u64::from_le_bytes(buf))
    }

    /// Reads `user`'s interaction row into `out` (cleared on entry). The
    /// resident cost is exactly this row.
    pub fn read_user_into(&self, user: u32, out: &mut Vec<u32>) -> Result<(), ArenaError> {
        out.clear();
        if user as usize >= self.num_users {
            return Err(ArenaError::Format(format!(
                "user {user} out of range ({} users)",
                self.num_users
            )));
        }
        let (start, end) = (self.indptr_at(user as usize)?, self.indptr_at(user as usize + 1)?);
        if start > end || end > self.nnz {
            return Err(ArenaError::Format(format!(
                "corrupt indptr for user {user}: [{start}, {end}) with nnz {}",
                self.nnz
            )));
        }
        let count = (end - start) as usize;
        if count == 0 {
            return Ok(());
        }
        let bytes_at = HEADER_LEN + 8 * (self.num_users as u64 + 1) + 4 * start;
        ROW_BYTES.with(|cell| -> Result<(), ArenaError> {
            let mut raw = cell.borrow_mut();
            raw.clear();
            raw.resize(count * 4, 0);
            self.file.read_exact_at(&mut raw, bytes_at)?;
            out.extend(raw.chunks_exact(4).map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]])));
            Ok(())
        })?;
        for w in out.windows(2) {
            if w[0] >= w[1] {
                return Err(ArenaError::Format(format!("user {user}'s row is not sorted unique")));
            }
        }
        if out.last().is_some_and(|&l| l as usize >= self.num_items) {
            return Err(ArenaError::Format(format!(
                "user {user}'s row references an out-of-range item"
            )));
        }
        Ok(())
    }
}

/// The little-endian `u64` at `bytes[at..at + 8]`.
fn u64_at(bytes: &[u8], at: usize) -> u64 {
    let b = &bytes[at..at + 8];
    u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
}

std::thread_local! {
    /// Raw byte scratch for row reads: steady-state row fetches reuse one
    /// buffer per thread instead of allocating per call.
    static ROW_BYTES: std::cell::RefCell<Vec<u8>> = const { std::cell::RefCell::new(Vec::new()) };
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A per-test file (tests run concurrently); each test removes its own.
    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("ptf-arena-test-{}-{name}", std::process::id()))
    }

    fn write_sample(path: &Path) {
        let mut w = ArenaWriter::create(path, 3, 10).unwrap();
        w.push_user(&[1, 4, 9]).unwrap();
        w.push_user(&[]).unwrap();
        w.push_user(&[0, 7]).unwrap();
        w.finish().unwrap();
    }

    #[test]
    fn roundtrip_rows() {
        let path = tmp("roundtrip.arena");
        write_sample(&path);
        let a = CsrArena::open(&path).unwrap();
        assert_eq!((a.num_users(), a.num_items(), a.nnz()), (3, 10, 5));
        let mut row = Vec::new();
        a.read_user_into(0, &mut row).unwrap();
        assert_eq!(row, vec![1, 4, 9]);
        a.read_user_into(1, &mut row).unwrap();
        assert_eq!(row, Vec::<u32>::new());
        a.read_user_into(2, &mut row).unwrap();
        assert_eq!(row, vec![0, 7]);
        assert!(a.read_user_into(3, &mut row).is_err(), "out-of-range user accepted");
        assert_eq!(a.nonempty_users().unwrap(), vec![0, 2], "empty user 1 must be skipped");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn writer_validates_rows() {
        let path = tmp("writer-validate.arena");
        let mut w = ArenaWriter::create(&path, 2, 5).unwrap();
        assert!(w.push_user(&[3, 1]).is_err(), "unsorted row accepted");
        assert!(w.push_user(&[5]).is_err(), "out-of-range item accepted");
        w.push_user(&[0]).unwrap();
        // finishing before all declared rows are in must fail
        assert!(w.finish().is_err(), "short arena accepted");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn open_rejects_truncation_and_garbage() {
        let path = tmp("corrupt.arena");
        write_sample(&path);
        let full = std::fs::read(&path).unwrap();
        // truncated mid-indices
        std::fs::write(&path, &full[..full.len() - 3]).unwrap();
        assert!(matches!(CsrArena::open(&path), Err(ArenaError::Format(_))), "truncation accepted");
        // shorter than the header
        std::fs::write(&path, &full[..20]).unwrap();
        assert!(matches!(CsrArena::open(&path), Err(ArenaError::Format(_))), "stub accepted");
        // wrong magic
        let mut bad = full.clone();
        bad[0] ^= 0xff;
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(CsrArena::open(&path), Err(ArenaError::Format(_))), "bad magic accepted");
        // future version
        let mut vnext = full.clone();
        vnext[8] = 9;
        std::fs::write(&path, &vnext).unwrap();
        assert!(
            matches!(CsrArena::open(&path), Err(ArenaError::Format(_))),
            "future version accepted"
        );
        // nnz disagreeing with the final indptr entry
        let mut badnnz = full.clone();
        badnnz[32] = 99;
        std::fs::write(&path, &badnnz).unwrap();
        assert!(
            matches!(CsrArena::open(&path), Err(ArenaError::Format(_))),
            "inconsistent nnz accepted"
        );
        // an nnz whose byte length overflows a u64, with the final indptr
        // entry crafted to agree: 4·nnz wraps to 0 if unchecked
        let mut huge = full;
        let last_indptr = (HEADER_LEN + 8 * 3) as usize;
        huge[32..40].copy_from_slice(&(1u64 << 62).to_le_bytes());
        huge[last_indptr..last_indptr + 8].copy_from_slice(&(1u64 << 62).to_le_bytes());
        std::fs::write(&path, &huge).unwrap();
        assert!(
            matches!(CsrArena::open(&path), Err(ArenaError::Format(_))),
            "overflowing nnz accepted"
        );
        std::fs::remove_file(&path).unwrap();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Damage anywhere in a small arena — header, indptr or rows — is
        /// an error, never a panic: `open` either refuses the file or
        /// returns an arena whose every read answers `Ok` or `Err`.
        #[test]
        fn damaged_arenas_are_errors_not_panics(
            edits in proptest::collection::vec((0usize..92, any::<u8>()), 1..6),
        ) {
            let path = tmp("damaged.arena");
            write_sample(&path);
            let mut bytes = std::fs::read(&path).unwrap();
            for (at, byte) in edits {
                bytes[at] = byte; // the sample is 92 bytes long
            }
            std::fs::write(&path, &bytes).unwrap();
            if let Ok(arena) = CsrArena::open(&path) {
                let mut row = Vec::new();
                for user in 0..=arena.num_users() as u32 {
                    let _ = arena.read_user_into(user, &mut row);
                }
                let _ = arena.nonempty_users();
            }
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn corrupt_rows_fail_on_read_not_on_open() {
        let path = tmp("corrupt-row.arena");
        write_sample(&path);
        let mut bytes = std::fs::read(&path).unwrap();
        // user 0's row starts right after header + 4 indptr entries;
        // swap its first two items to break the sorted invariant
        let rows_at = (HEADER_LEN + 8 * 4) as usize;
        bytes[rows_at] = 4;
        bytes[rows_at + 4] = 1;
        std::fs::write(&path, &bytes).unwrap();
        let a = CsrArena::open(&path).unwrap();
        let mut row = Vec::new();
        assert!(a.read_user_into(0, &mut row).is_err(), "unsorted row accepted");
        // other rows still read fine
        a.read_user_into(2, &mut row).unwrap();
        assert_eq!(row, vec![0, 7]);
        std::fs::remove_file(&path).unwrap();
    }
}
