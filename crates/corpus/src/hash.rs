//! Content hashing for artifact keys.
//!
//! The artifact store keys every stage output by a hash of its inputs
//! (page bytes, CLI sets, leaf contexts). Two functions do that work:
//!
//! * [`Fnv1a`] — a streaming, byte-at-a-time 64-bit FNV-1a. It frames
//!   multi-field keys ([`Fnv1a::write_field`]) and hashes everything
//!   short: vendor names, URLs, CLI forms, section checksums.
//! * [`digest64`] — a one-shot, word-at-a-time 64-bit digest for bulk
//!   bytes. FNV-1a spends one dependent multiply per byte; the digest
//!   spends one 64×64→128-bit multiply per 16-byte block, so keying a
//!   whole manual's HTML on every revision costs a fraction of the
//!   FNV pass. It is used for exactly one input: a page's raw HTML
//!   inside `nassim_parser::page_key`, which frames the digest like
//!   any other field.
//!
//! Both are chosen over a cryptographic hash deliberately: keys only
//! need to distinguish inputs within one corpus and the hashers must be
//! dependency-free. Neither is collision-resistant against an
//! adversary — anyone who controls the bytes can construct a collision
//! for either — so keys must never guard a trust boundary. Unlike
//! `std::hash::DefaultHasher`, both outputs are specified (frozen test
//! vectors below), so saved stores remain valid across Rust releases;
//! changing either function changes persisted keys and needs an
//! artifact-store schema bump.
//!
//! Multi-field keys are built by feeding fields through one [`Fnv1a`]
//! stream with explicit length prefixes ([`Fnv1a::write_field`]), so
//! `("ab", "c")` and `("a", "bc")` hash differently.

/// Streaming 64-bit FNV-1a hasher.
#[derive(Debug, Clone)]
pub struct Fnv1a {
    state: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a::new()
    }
}

impl Fnv1a {
    pub fn new() -> Fnv1a {
        Fnv1a { state: FNV_OFFSET }
    }

    /// Feed raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) -> &mut Fnv1a {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Feed a string's UTF-8 bytes (no framing — see [`Fnv1a::write_field`]).
    pub fn write_str(&mut self, s: &str) -> &mut Fnv1a {
        self.write_bytes(s.as_bytes())
    }

    /// Feed a `u64` little-endian.
    pub fn write_u64(&mut self, v: u64) -> &mut Fnv1a {
        self.write_bytes(&v.to_le_bytes())
    }

    /// Feed a `usize` as a `u64` (portable across word sizes).
    pub fn write_usize(&mut self, v: usize) -> &mut Fnv1a {
        self.write_u64(v as u64)
    }

    /// Feed one delimited field: its byte length, then its bytes. Use
    /// this when hashing several variable-length inputs into one key so
    /// field boundaries are unambiguous.
    pub fn write_field(&mut self, s: &str) -> &mut Fnv1a {
        self.write_usize(s.len());
        self.write_str(s)
    }

    /// The hash of everything written so far.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// One-shot FNV-1a of a string.
pub fn fnv1a_str(s: &str) -> u64 {
    let mut h = Fnv1a::new();
    h.write_str(s);
    h.finish()
}

/// One-shot FNV-1a of raw bytes.
pub fn fnv1a_bytes(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write_bytes(bytes);
    h.finish()
}

/// The four constants of [`digest64`]: wyhash's default secrets, each
/// odd with 32 of its 64 bits set.
const DIGEST_K: [u64; 4] = [
    0xa076_1d64_78bd_642f,
    0xe703_7ed1_a0b4_28db,
    0x8ebc_6af0_9c88_c6e3,
    0x5899_65cc_7537_4cc3,
];

/// Multiply-fold: the full 128-bit product of `a` and `b`, its two
/// halves XORed together.
#[inline]
fn fold_mul(a: u64, b: u64) -> u64 {
    let r = u128::from(a) * u128::from(b);
    (r as u64) ^ ((r >> 64) as u64)
}

/// One-shot 64-bit digest of `bytes`, one 128-bit multiply per 16-byte
/// block. Specified as follows (`K` = [`DIGEST_K`], `fold(a, b)` = the
/// 128-bit product `a·b` with its high and low halves XORed):
///
/// 1. `h = K[0]`.
/// 2. For each whole 16-byte block, read `a` = bytes 0..8 and `b` =
///    bytes 8..16 as little-endian `u64`s and set
///    `h = fold(a ^ K[1], b ^ h)`.
/// 3. Zero-pad the remaining 0–15 bytes to one more 16-byte block and
///    fold it the same way (so the empty input folds one zero block).
/// 4. Return `fold(h ^ K[2], len ^ K[3])`, `len` the byte count as
///    `u64` — the length is mixed in, so zero padding never collides
///    with real zero bytes.
///
/// Not collision-resistant against an adversary (see the module doc).
pub fn digest64(bytes: &[u8]) -> u64 {
    let block = |c: &[u8]| {
        let mut a = [0u8; 8];
        let mut b = [0u8; 8];
        a.copy_from_slice(&c[..8]);
        b.copy_from_slice(&c[8..16]);
        (u64::from_le_bytes(a), u64::from_le_bytes(b))
    };
    let mut h = DIGEST_K[0];
    let mut blocks = bytes.chunks_exact(16);
    for c in &mut blocks {
        let (a, b) = block(c);
        h = fold_mul(a ^ DIGEST_K[1], b ^ h);
    }
    let tail = blocks.remainder();
    let mut last = [0u8; 16];
    last[..tail.len()].copy_from_slice(tail);
    let (a, b) = block(&last);
    h = fold_mul(a ^ DIGEST_K[1], b ^ h);
    fold_mul(h ^ DIGEST_K[2], (bytes.len() as u64) ^ DIGEST_K[3])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_published_test_vectors() {
        // Standard FNV-1a 64-bit vectors.
        assert_eq!(fnv1a_str(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_str("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_str("foobar"), 0x8594_4171_f739_67e8);
    }

    /// Frozen vectors: persisted page keys embed [`digest64`], so any
    /// change here silently orphans every saved store. Computed from the
    /// spec on [`digest64`] by an independent implementation.
    #[test]
    fn digest_matches_frozen_vectors() {
        assert_eq!(digest64(b""), 0x2afa_3043_c0fb_b4d2);
        assert_eq!(digest64(b"a"), 0xef83_7b11_cd57_5c7f);
        assert_eq!(digest64(b"foobar"), 0x3160_5c7c_d6d9_6b95);
        assert_eq!(digest64(b"0123456789abcdef"), 0x352b_c2d7_5a4c_8126);
        assert_eq!(digest64(b"0123456789abcdef0"), 0x046e_5512_6e12_707d);
        assert_eq!(
            digest64("<p>page</p>".repeat(10).as_bytes()),
            0x86e1_bd38_6a9e_621a
        );
        assert_eq!(digest64(b"\0"), 0xb520_c826_19ec_60a0);
        assert_eq!(digest64(b"\0\0"), 0xc457_6084_b2dc_1d72);
    }

    #[test]
    fn digest_mixes_length_past_zero_padding() {
        // The tail block is zero-padded; only the length tells these apart.
        let digests = [
            digest64(b""),
            digest64(b"\0"),
            digest64(b"\0\0"),
            digest64(&[0; 16]),
        ];
        for (i, a) in digests.iter().enumerate() {
            for b in &digests[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn field_framing_disambiguates_concatenations() {
        let mut a = Fnv1a::new();
        a.write_field("ab").write_field("c");
        let mut b = Fnv1a::new();
        b.write_field("a").write_field("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn streaming_equals_one_shot() {
        let mut h = Fnv1a::new();
        h.write_str("foo").write_str("bar");
        assert_eq!(h.finish(), fnv1a_str("foobar"));
        assert_eq!(fnv1a_bytes(b"foobar"), fnv1a_str("foobar"));
    }
}
