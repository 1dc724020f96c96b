//! A per-process scratch directory, removed when its guard drops — at
//! exit, and on a panic's unwind.

use std::path::{Path, PathBuf};

pub struct TmpDir(PathBuf);

impl TmpDir {
    /// Creates `parent/tmp-<pid>-<tag>`, empty.
    pub fn new(parent: &Path, tag: &str) -> Self {
        let path = parent.join(format!("tmp-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)
            .unwrap_or_else(|e| panic!("scratch directory {}: {e}", path.display()));
        Self(path)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
