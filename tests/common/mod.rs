//! Helpers shared by the root integration tests (`mod common;`).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A fresh directory under the system temp dir, removed with its
/// contents on drop.
///
/// The tests of one binary run on parallel threads of one process, so a
/// name built from the pid alone is shared between them: one test could
/// delete a file another is still reading. A process-wide counter makes
/// every directory unique, whatever the thread count.
pub struct TempDir(PathBuf);

impl TempDir {
    /// Create `sti-<label>-<pid>-<n>` under the system temp dir.
    pub fn new(label: &str) -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("sti-{label}-{}-{n}", std::process::id()));
        // A directory left by an earlier process with a recycled pid.
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create temp dir");
        Self(path)
    }

    /// A path inside the directory.
    pub fn join(&self, name: impl AsRef<Path>) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
