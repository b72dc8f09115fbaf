//! Canonical cache keys.
//!
//! A key is built by appending every input of the memoized function to a
//! byte buffer in a fixed order and a fixed little-endian encoding, then
//! hashing the buffer with FNV-64 ([`lori_obs::fsio::fnv64`]). The *full*
//! byte buffer is retained alongside the hash so the store can detect hash
//! collisions instead of silently returning a wrong entry.
//!
//! Floats are encoded via [`f64::to_bits`], so two inputs that compare
//! equal but have different bit patterns (`0.0` vs `-0.0`, distinct NaNs)
//! produce *different* keys. That is the conservative direction: a spurious
//! miss costs a recompute, a spurious hit would corrupt results.

use lori_obs::fsio::fnv64;

/// A finished content-addressed key: the FNV-64 digest plus the canonical
/// bytes it was computed from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheKey {
    hash: u64,
    bytes: Vec<u8>,
}

impl CacheKey {
    /// The FNV-64 digest of the canonical bytes.
    #[must_use]
    pub fn hash(&self) -> u64 {
        self.hash
    }

    /// The canonical byte serialization the digest was computed from.
    #[must_use]
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }
}

/// Incrementally builds a [`CacheKey`] from typed fields.
///
/// The `domain` string and `version` number are the first fields pushed, so
/// bumping the version (when the memoized function's numerics change)
/// invalidates every previously stored entry by changing every hash.
#[derive(Debug, Clone)]
pub struct KeyBuilder {
    bytes: Vec<u8>,
}

impl KeyBuilder {
    /// Starts a key for `domain` at schema `version`.
    #[must_use]
    pub fn new(domain: &str, version: u32) -> Self {
        let mut b = KeyBuilder {
            bytes: Vec::with_capacity(128),
        };
        b.push_str(domain);
        b.bytes.extend_from_slice(&version.to_le_bytes());
        b
    }

    /// Appends a `u64` field.
    pub fn push_u64(&mut self, v: u64) -> &mut Self {
        self.bytes.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends an `f64` field by exact bit pattern.
    pub fn push_f64(&mut self, v: f64) -> &mut Self {
        self.bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        self
    }

    /// Appends a length-prefixed string field.
    pub fn push_str(&mut self, s: &str) -> &mut Self {
        self.push_bytes(s.as_bytes())
    }

    /// Appends a length-prefixed raw byte field.
    pub fn push_bytes(&mut self, b: &[u8]) -> &mut Self {
        self.bytes
            .extend_from_slice(&(b.len() as u64).to_le_bytes());
        self.bytes.extend_from_slice(b);
        self
    }

    /// Finalizes the key: hashes the accumulated bytes.
    #[must_use]
    pub fn finish(self) -> CacheKey {
        let hash = fnv64(&self.bytes);
        CacheKey {
            hash,
            bytes: self.bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(version: u32, x: f64) -> CacheKey {
        let mut b = KeyBuilder::new("test.domain", version);
        b.push_f64(x).push_u64(7).push_str("inv");
        b.finish()
    }

    #[test]
    fn identical_inputs_identical_keys() {
        assert_eq!(key(1, 2.5), key(1, 2.5));
    }

    #[test]
    fn different_inputs_different_keys() {
        let a = key(1, 2.5);
        let b = key(1, 2.5000001);
        assert_ne!(a.hash(), b.hash());
        assert_ne!(a.bytes(), b.bytes());
    }

    #[test]
    fn version_bump_changes_key() {
        assert_ne!(key(1, 2.5).hash(), key(2, 2.5).hash());
    }

    #[test]
    fn negative_zero_is_distinct() {
        assert_ne!(key(1, 0.0).hash(), key(1, -0.0).hash());
    }

    #[test]
    fn length_prefix_prevents_field_smearing() {
        // ("ab", "c") must not collide with ("a", "bc").
        let mut a = KeyBuilder::new("d", 1);
        a.push_str("ab").push_str("c");
        let mut b = KeyBuilder::new("d", 1);
        b.push_str("a").push_str("bc");
        assert_ne!(a.finish().hash(), b.finish().hash());
    }
}
