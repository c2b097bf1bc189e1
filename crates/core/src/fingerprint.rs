//! Stable content fingerprints for incremental recompilation.
//!
//! The paper's recompilation story (§3) hinges on knowing *when* a phase's
//! inputs actually changed: the compiler first phase depends only on a
//! module's source text, and the second phase depends only on the module's
//! IR plus the slice of the program database it consults. The driver keys
//! its [`CompilationCache`](../../ipra_driver/struct.CompilationCache.html)
//! on the 64-bit FNV-1a fingerprints computed here.
//!
//! FNV-1a is not cryptographic — it is a fast, dependency-free, fully
//! deterministic hash whose value is stable across processes, platforms and
//! thread schedules, which is exactly what a build cache key needs. A
//! collision would mean a stale object is reused; at 64 bits over a handful
//! of modules that risk is negligible for a build cache (and any paranoia
//! can be settled by `cargo clean`'s moral equivalent,
//! `CompilationCache::clear`).
//!
//! FNV-1a reads one byte per multiply. Frame integrity, which needs no
//! stable key, uses [`checksum`] instead, which reads eight.

/// An incremental FNV-1a 64-bit hasher.
///
/// ```
/// use ipra_core::fingerprint::Fnv64;
/// let mut h = Fnv64::new();
/// h.write_str("module");
/// h.write_u64(42);
/// assert_eq!(h.finish(), {
///     let mut h2 = Fnv64::new();
///     h2.write_str("module");
///     h2.write_u64(42);
///     h2.finish()
/// });
/// ```
#[derive(Debug, Clone)]
pub struct Fnv64(u64);

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

impl Default for Fnv64 {
    fn default() -> Fnv64 {
        Fnv64::new()
    }
}

impl Fnv64 {
    /// A hasher in the initial state.
    pub fn new() -> Fnv64 {
        Fnv64(FNV_OFFSET)
    }

    /// Feeds raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Feeds a string, length-prefixed so `("ab","c")` and `("a","bc")`
    /// hash differently.
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write(s.as_bytes());
    }

    /// Feeds a 64-bit integer (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// One-shot fingerprint of a string.
pub fn fingerprint_str(s: &str) -> u64 {
    let mut h = Fnv64::new();
    h.write_str(s);
    h.finish()
}

/// The integrity checksum of a binary frame: the daemon's `CMND` frames
/// and the cache tier's `IPRF` frames. It is never a key: keys and the
/// fingerprints artifacts carry stay [`Fnv64`], whose values are pinned.
///
/// The state starts from the FNV offset basis xor the length, then takes
/// each 8-byte little-endian word (the last one zero-padded) with one
/// multiply:
/// `s = (s ^ w) * K; s ^= s >> 32`. For a fixed word each step is a
/// bijection of the state, and for a fixed state a bijection of the word,
/// so a change confined to one word, such as any single changed byte,
/// always changes the result, as with FNV-1a. So does a trailing zero
/// byte that stays inside the last word: the words are the same, the
/// starting state is not.
pub fn checksum(bytes: &[u8]) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let step = |s: u64, word: [u8; 8]| {
        let s = (s ^ u64::from_le_bytes(word)).wrapping_mul(K);
        s ^ (s >> 32)
    };
    let (words, tail) = bytes.as_chunks::<8>();
    let mut s = FNV_OFFSET ^ bytes.len() as u64;
    for &word in words {
        s = step(s, word);
    }
    if !tail.is_empty() {
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        s = step(s, last);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every single-bit flip at every length up to eight words changes the
    /// checksum, and so does appending a zero byte.
    #[test]
    fn checksum_sees_every_bit_flip_and_a_trailing_zero() {
        for len in 0..=64usize {
            let bytes: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            let base = checksum(&bytes);
            for bit in 0..len * 8 {
                let mut flipped = bytes.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(checksum(&flipped), base, "length {len}, bit {bit}");
            }
            let mut longer = bytes.clone();
            longer.push(0);
            assert_ne!(checksum(&longer), base, "length {len} plus a zero byte");
        }
    }

    #[test]
    fn deterministic_and_discriminating() {
        assert_eq!(fingerprint_str("abc"), fingerprint_str("abc"));
        assert_ne!(fingerprint_str("abc"), fingerprint_str("abd"));
        assert_ne!(fingerprint_str(""), fingerprint_str("\0"));
    }

    #[test]
    fn length_prefix_prevents_concatenation_collisions() {
        let mut a = Fnv64::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = Fnv64::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    /// Pins `write` to the published FNV-1a 64-bit reference vectors.
    /// If these move, every on-disk cache key in existence silently
    /// invalidates — treat a failure here as an ABI break, not a test to
    /// update.
    #[test]
    fn raw_write_matches_published_fnv1a_vectors() {
        assert_eq!(Fnv64::new().finish(), FNV_OFFSET);
        let mut h = Fnv64::new();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv64::new();
        h.write(b"foobar");
        assert_eq!(h.finish(), 0x8594_4171_f739_67e8);
    }

    /// Byte-pins the length-prefixed string encoding. These values fold in
    /// the 8-byte little-endian length before the bytes, so they differ from
    /// the raw vectors above on purpose.
    #[test]
    fn golden_string_fingerprints() {
        assert_eq!(fingerprint_str(""), 0xa8c7_f832_281a_39c5);
        assert_eq!(fingerprint_str("module"), 0xa298_7d78_245a_346f);
    }
}
