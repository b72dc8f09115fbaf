//! Crash-safe file output: write to a same-directory temp file, then
//! atomically rename over the destination. A reader never observes a
//! half-written artifact, and a killed process leaves at most a stray
//! `.{name}.tmp.{pid}` file behind. Also home to [`fnv64`], the one
//! checksum the workspace uses for on-disk and in-memory integrity checks,
//! and of [`results_dir`], the one reader of `LORI_RESULTS_DIR`.

use std::io::Write;
use std::path::{Path, PathBuf};

/// FNV-1a 64-bit over arbitrary bytes. Stable across platforms and runs.
#[must_use]
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The directory run artifacts land in: `$LORI_RESULTS_DIR` when set,
/// else `results/`. The one reader of that variable, shared by the
/// experiment harness, `lori-report` and `lori-cache`.
#[must_use]
pub fn results_dir() -> PathBuf {
    std::env::var_os("LORI_RESULTS_DIR").map_or_else(|| PathBuf::from("results"), PathBuf::from)
}

/// The temp sibling used for atomic replacement of `path`. Same directory,
/// so the final `rename` stays within one filesystem.
pub(crate) fn tmp_sibling(path: &Path) -> PathBuf {
    let name = path
        .file_name()
        .map_or_else(|| "out".to_owned(), |n| n.to_string_lossy().into_owned());
    path.with_file_name(format!(".{name}.tmp.{}", std::process::id()))
}

/// Writes `bytes` to `path` atomically: a synced same-directory temp file,
/// then a rename over the destination. The temp file is removed on error.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn atomic_write(path: impl AsRef<Path>, bytes: &[u8]) -> std::io::Result<()> {
    let path = path.as_ref();
    let tmp = tmp_sibling(path);
    let result = (|| {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
        std::fs::rename(&tmp, path)
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atomic_write_replaces_without_droppings() {
        let dir = std::env::temp_dir().join(format!("lori-obs-fsio-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("doc.json");
        atomic_write(&path, b"first").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        atomic_write(&path, b"second").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().contains("tmp"))
            .collect();
        assert!(leftovers.is_empty(), "no temp files left: {leftovers:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fnv64_is_stable() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv64(b"a"), fnv64(b"b"));
    }
}
