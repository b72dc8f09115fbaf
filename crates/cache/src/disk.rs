//! The optional disk tier: one checksummed file per cache entry.
//!
//! Entry layout (all integers little-endian):
//!
//! ```text
//! magic    : 8 bytes  "LORICACH"
//! version  : u32      on-disk format version
//! key hash : u64      FNV-64 of the canonical key bytes (also the filename)
//! key len  : u32      followed by the canonical key bytes
//! pay len  : u32      followed by the encoded payload bytes
//! checksum : u64      FNV-64 over everything above
//! ```
//!
//! Files are written atomically ([`lori_obs::fsio::atomic_write`]: temp
//! sibling then rename) so a crash mid-write leaves either the old entry or
//! none. A reader verifies size, magic, format version, checksum, and that
//! the stored key bytes equal the queried key; any mismatch is reported as
//! [`ReadOutcome::Corrupt`] and the caller recomputes — a damaged entry is
//! never trusted.

use crate::key::CacheKey;
use lori_obs::fsio::{atomic_write, fnv64};
use std::io;
use std::path::{Path, PathBuf};

/// On-disk format version; bump when the entry layout changes.
pub const DISK_FORMAT_VERSION: u32 = 1;

const MAGIC: &[u8; 8] = b"LORICACH";

/// Result of probing the disk tier for a key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadOutcome {
    /// No entry file exists for this key.
    Miss,
    /// An entry file exists but failed validation (truncated, bad magic,
    /// wrong format version, checksum mismatch, or key-byte mismatch).
    Corrupt,
    /// A valid entry; the encoded payload bytes.
    Hit(Vec<u8>),
}

/// Path of the entry file for `hash` under `dir`.
#[must_use]
pub fn entry_path(dir: &Path, hash: u64) -> PathBuf {
    dir.join(format!("{hash:016x}.lc"))
}

/// Serializes one entry to its on-disk byte layout.
#[must_use]
pub fn encode_entry(key: &CacheKey, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(40 + key.bytes().len() + payload.len());
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&DISK_FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&key.hash().to_le_bytes());
    out.extend_from_slice(&(key.bytes().len() as u32).to_le_bytes());
    out.extend_from_slice(key.bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    let sum = fnv64(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// Validates an entry's bytes against `key`; returns the payload if sound.
#[must_use]
pub fn decode_entry(bytes: &[u8], key: &CacheKey) -> ReadOutcome {
    // Fixed overhead: magic + version + hash + two lengths + checksum.
    const FIXED: usize = 8 + 4 + 8 + 4 + 4 + 8;
    if bytes.len() < FIXED {
        return ReadOutcome::Corrupt;
    }
    let (body, sum_bytes) = bytes.split_at(bytes.len() - 8);
    let stored_sum = u64::from_le_bytes(sum_bytes.try_into().expect("8-byte tail"));
    if fnv64(body) != stored_sum {
        return ReadOutcome::Corrupt;
    }
    if &body[..8] != MAGIC {
        return ReadOutcome::Corrupt;
    }
    let version = u32::from_le_bytes(body[8..12].try_into().expect("4 bytes"));
    if version != DISK_FORMAT_VERSION {
        return ReadOutcome::Corrupt;
    }
    let hash = u64::from_le_bytes(body[12..20].try_into().expect("8 bytes"));
    if hash != key.hash() {
        return ReadOutcome::Corrupt;
    }
    let key_len = u32::from_le_bytes(body[20..24].try_into().expect("4 bytes")) as usize;
    let key_end = 24usize.saturating_add(key_len);
    if key_end + 4 > body.len() {
        return ReadOutcome::Corrupt;
    }
    if &body[24..key_end] != key.bytes() {
        return ReadOutcome::Corrupt;
    }
    let pay_len =
        u32::from_le_bytes(body[key_end..key_end + 4].try_into().expect("4 bytes")) as usize;
    let pay_start = key_end + 4;
    if pay_start.checked_add(pay_len) != Some(body.len()) {
        return ReadOutcome::Corrupt;
    }
    ReadOutcome::Hit(body[pay_start..].to_vec())
}

/// Probes the disk tier for `key` under `dir`.
#[must_use]
pub fn read_entry(dir: &Path, key: &CacheKey) -> ReadOutcome {
    let path = entry_path(dir, key.hash());
    match std::fs::read(&path) {
        Ok(bytes) => decode_entry(&bytes, key),
        Err(e) if e.kind() == io::ErrorKind::NotFound => ReadOutcome::Miss,
        Err(_) => ReadOutcome::Corrupt,
    }
}

/// Writes `payload` for `key` under `dir` atomically.
///
/// Returns the number of bytes written, or the I/O error. Callers treat a
/// failed write as a non-event: the entry simply stays uncached.
pub fn write_entry(dir: &Path, key: &CacheKey, payload: &[u8]) -> io::Result<usize> {
    std::fs::create_dir_all(dir)?;
    let bytes = encode_entry(key, payload);
    atomic_write(entry_path(dir, key.hash()), &bytes)?;
    Ok(bytes.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::KeyBuilder;

    fn key() -> CacheKey {
        let mut b = KeyBuilder::new("disk.test", 1);
        b.push_f64(1.25).push_u64(3);
        b.finish()
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("lori-cache-disk-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn roundtrip() {
        let dir = tmp_dir("roundtrip");
        let k = key();
        assert_eq!(read_entry(&dir, &k), ReadOutcome::Miss);
        write_entry(&dir, &k, b"payload-bytes").unwrap();
        assert_eq!(
            read_entry(&dir, &k),
            ReadOutcome::Hit(b"payload-bytes".to_vec())
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_byte_detected() {
        let dir = tmp_dir("corrupt");
        let k = key();
        write_entry(&dir, &k, b"payload").unwrap();
        let path = entry_path(&dir, k.hash());
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(read_entry(&dir, &k), ReadOutcome::Corrupt);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_entry_detected() {
        let dir = tmp_dir("trunc");
        let k = key();
        write_entry(&dir, &k, b"payload").unwrap();
        let path = entry_path(&dir, k.hash());
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        assert_eq!(read_entry(&dir, &k), ReadOutcome::Corrupt);
        // Even an empty file must not panic.
        std::fs::write(&path, b"").unwrap();
        assert_eq!(read_entry(&dir, &k), ReadOutcome::Corrupt);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn format_version_mismatch_detected() {
        let dir = tmp_dir("version");
        let k = key();
        write_entry(&dir, &k, b"payload").unwrap();
        let path = entry_path(&dir, k.hash());
        // Rewrite the entry with a bumped format version and a *valid*
        // checksum, so the version check itself is what rejects it.
        let bytes = std::fs::read(&path).unwrap();
        let mut body = bytes[..bytes.len() - 8].to_vec();
        body[8..12].copy_from_slice(&(DISK_FORMAT_VERSION + 1).to_le_bytes());
        let sum = fnv64(&body);
        body.extend_from_slice(&sum.to_le_bytes());
        std::fs::write(&path, &body).unwrap();
        assert_eq!(read_entry(&dir, &k), ReadOutcome::Corrupt);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn key_mismatch_detected() {
        let dir = tmp_dir("keymismatch");
        let k = key();
        write_entry(&dir, &k, b"payload").unwrap();
        let mut other = KeyBuilder::new("disk.test", 1);
        other.push_f64(9.75).push_u64(3);
        let other = other.finish();
        // Force the other key's file onto this hash slot to simulate a
        // hash collision on disk.
        let bytes = std::fs::read(entry_path(&dir, k.hash())).unwrap();
        assert_eq!(decode_entry(&bytes, &other), ReadOutcome::Corrupt);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
