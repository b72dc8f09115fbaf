//! # lori-cache — content-addressed memoization for expensive pure functions
//!
//! The paper's methodology (Sec. II, Fig. 3) hinges on querying the slow
//! golden model as rarely as possible. This crate makes "rarely" a system
//! property instead of a per-call-site discipline: any deterministic,
//! expensive function can be memoized behind a canonical content-addressed
//! key, in memory and optionally on disk across process restarts.
//!
//! Three pieces, all hand-rolled on `std`:
//!
//! 1. **Keys** ([`KeyBuilder`] / [`CacheKey`]): a canonical little-endian
//!    byte serialization of every input (floats by exact bit pattern),
//!    hashed with FNV-64 ([`lori_obs::fsio::fnv64`]). The full key bytes
//!    travel with the hash, so digest collisions are detected and
//!    recomputed — never trusted.
//! 2. **Store** ([`Cache`]): a sharded, lock-striped in-process map safe
//!    under `lori-par`, plus an optional disk tier of atomically written,
//!    checksummed one-file-per-entry records. Corrupt, truncated, or
//!    version-mismatched disk entries are detected, counted
//!    (`cache.corrupt`), and recomputed.
//! 3. **Mode** ([`CacheMode`]): selected by the `LORI_CACHE` environment
//!    variable — `off` (every call computes), `mem` (default; in-process
//!    only), `disk` (persist under `results/cache/`), or `disk:<dir>`.
//!
//! Because cached functions are pure, results are bit-identical with the
//! cache off, cold, or warm, at any `LORI_THREADS` — the cache can change
//! wall-clock time only, never bytes.
#![warn(missing_docs)]

mod disk;
mod key;
mod store;

pub use disk::{
    decode_entry, encode_entry, entry_path, read_entry, write_entry, ReadOutcome,
    DISK_FORMAT_VERSION,
};
pub use key::{CacheKey, KeyBuilder};
pub use store::{Cache, CachePayload, CacheStats};

use std::path::PathBuf;
use std::sync::OnceLock;

/// Where memoized values live.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheMode {
    /// No caching: every lookup computes.
    Off,
    /// In-process sharded map only (the default).
    Mem,
    /// In-process map plus a persistent checksummed entry-per-file tier.
    Disk(PathBuf),
}

impl CacheMode {
    /// Parses a `LORI_CACHE` value.
    ///
    /// Accepted: `off`/`0`/`false`, `mem`/`on`/`1`/`true`, `disk`
    /// (defaults to `results/cache`), `disk:<dir>`.
    ///
    /// # Errors
    ///
    /// Returns a description of the accepted forms on any other value.
    pub fn parse(s: &str) -> Result<CacheMode, String> {
        let t = s.trim();
        match t.to_ascii_lowercase().as_str() {
            "off" | "0" | "false" => Ok(CacheMode::Off),
            "" | "mem" | "on" | "1" | "true" => Ok(CacheMode::Mem),
            "disk" => Ok(CacheMode::Disk(default_disk_dir())),
            other => {
                if let Some(dir) = other.strip_prefix("disk:") {
                    // Preserve the original (non-lowercased) path text.
                    let raw = &t[t.len() - dir.len()..];
                    if raw.is_empty() {
                        return Err(format!("LORI_CACHE=disk: needs a directory, got {s:?}"));
                    }
                    Ok(CacheMode::Disk(PathBuf::from(raw)))
                } else {
                    Err(format!(
                        "unrecognized LORI_CACHE value {s:?} (want off | mem | disk | disk:<dir>)"
                    ))
                }
            }
        }
    }

    /// Reads `LORI_CACHE` from the environment; unset means [`Mem`].
    /// An unparseable value warns on stderr and falls back to [`Mem`]
    /// (the safe default: deterministic and never stale across runs).
    ///
    /// [`Mem`]: CacheMode::Mem
    #[must_use]
    pub fn from_env() -> CacheMode {
        match std::env::var("LORI_CACHE") {
            Ok(v) => CacheMode::parse(&v).unwrap_or_else(|e| {
                eprintln!("lori-cache: {e}; falling back to mem");
                CacheMode::Mem
            }),
            Err(_) => CacheMode::Mem,
        }
    }

    /// A short human/manifest label: `"off"`, `"mem"`, or `"disk:<dir>"`.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            CacheMode::Off => "off".to_owned(),
            CacheMode::Mem => "mem".to_owned(),
            CacheMode::Disk(dir) => format!("disk:{}", dir.display()),
        }
    }
}

fn default_disk_dir() -> PathBuf {
    lori_obs::fsio::results_dir().join("cache")
}

/// The process-wide cache mode, read from `LORI_CACHE` once on first use.
#[must_use]
pub fn global_mode() -> &'static CacheMode {
    static MODE: OnceLock<CacheMode> = OnceLock::new();
    MODE.get_or_init(CacheMode::from_env)
}

/// [`global_mode`] as a manifest-ready label.
#[must_use]
pub fn mode_string() -> String {
    global_mode().label()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_modes() {
        assert_eq!(CacheMode::parse("off").unwrap(), CacheMode::Off);
        assert_eq!(CacheMode::parse("0").unwrap(), CacheMode::Off);
        assert_eq!(CacheMode::parse("mem").unwrap(), CacheMode::Mem);
        assert_eq!(CacheMode::parse("").unwrap(), CacheMode::Mem);
        assert_eq!(CacheMode::parse(" ON ").unwrap(), CacheMode::Mem);
        assert_eq!(
            CacheMode::parse("disk:/tmp/x").unwrap(),
            CacheMode::Disk(PathBuf::from("/tmp/x"))
        );
        assert!(matches!(
            CacheMode::parse("disk").unwrap(),
            CacheMode::Disk(_)
        ));
        assert!(CacheMode::parse("disk:").is_err());
        assert!(CacheMode::parse("bogus").is_err());
    }

    #[test]
    fn disk_path_case_preserved() {
        assert_eq!(
            CacheMode::parse("disk:/Tmp/MiXeD").unwrap(),
            CacheMode::Disk(PathBuf::from("/Tmp/MiXeD"))
        );
    }

    #[test]
    fn labels_round_trip() {
        for s in ["off", "mem", "disk:/tmp/cache-dir"] {
            assert_eq!(CacheMode::parse(s).unwrap().label(), s);
        }
    }
}
