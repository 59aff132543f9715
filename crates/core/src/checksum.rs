//! Stream checksums for integrity framing.
//!
//! The `guard` meta-compressor frames its child's compressed stream with a
//! checksum so bit flips and truncations surface as
//! [`CorruptStream`](crate::ErrorCode::CorruptStream) *before* the child's
//! decoder ever parses hostile bytes. Two hashes live here, one per guard
//! frame version:
//!
//! * [`xxh64`] — XXH64 with seed 0, the checksum of **frame v2**, the one
//!   the guard writes. It consumes 32 bytes per round in four independent
//!   64-bit lanes, so it runs at a fraction of a nanosecond per byte where a
//!   byte-serial hash is bound by one multiply per byte.
//! * [`fnv1a64`] / [`Fnv1a64`] — 64-bit FNV-1a, the checksum of **frame v1**.
//!   Kept so streams already written keep decoding (and as a tiny seedable
//!   mixer for the fuzz harness); nothing new is written with it.
//!
//! Both are allocation-free, deterministic across platforms, and strong
//! enough to catch accidental corruption. Neither is an authentication code:
//! anyone can compute them, so a deliberate attacker is out of scope, exactly
//! as for CRCs in other storage formats — which is why every size a frame
//! declares is still validated on its own before anything is allocated.

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A streaming FNV-1a 64-bit hasher.
///
/// ```
/// use pressio_core::checksum::Fnv1a64;
/// let mut h = Fnv1a64::new();
/// h.update(b"hello ");
/// h.update(b"world");
/// assert_eq!(h.finish(), pressio_core::checksum::fnv1a64(b"hello world"));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a64 {
    state: u64,
}

impl Fnv1a64 {
    /// A hasher at the FNV offset basis.
    pub const fn new() -> Fnv1a64 {
        Fnv1a64 { state: FNV_OFFSET }
    }

    /// Absorb `bytes` into the running hash.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut h = self.state;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.state = h;
    }

    /// Absorb a little-endian `u64` (for hashing header fields alongside
    /// payload bytes without intermediate buffers).
    pub fn update_u64(&mut self, v: u64) {
        self.update(&v.to_le_bytes());
    }

    /// The current hash value.
    pub const fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for Fnv1a64 {
    fn default() -> Self {
        Fnv1a64::new()
    }
}

/// One-shot FNV-1a 64-bit hash of `bytes`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a64::new();
    h.update(bytes);
    h.finish()
}

const XXH_PRIME_1: u64 = 0x9E37_79B1_85EB_CA87;
const XXH_PRIME_2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const XXH_PRIME_3: u64 = 0x1656_67B1_9E37_79F9;
const XXH_PRIME_4: u64 = 0x85EB_CA77_C2B2_AE63;
const XXH_PRIME_5: u64 = 0x27D4_EB2F_1656_67C5;

/// Little-endian `u64` at `b[at..at + 8]`.
#[inline(always)]
fn le64(b: &[u8], at: usize) -> u64 {
    let mut word = [0u8; 8];
    word.copy_from_slice(&b[at..at + 8]);
    u64::from_le_bytes(word)
}

#[inline(always)]
fn xxh_round(acc: u64, lane: u64) -> u64 {
    acc.wrapping_add(lane.wrapping_mul(XXH_PRIME_2))
        .rotate_left(31)
        .wrapping_mul(XXH_PRIME_1)
}

#[inline(always)]
fn xxh_merge(h: u64, acc: u64) -> u64 {
    (h ^ xxh_round(0, acc))
        .wrapping_mul(XXH_PRIME_1)
        .wrapping_add(XXH_PRIME_4)
}

/// One-shot XXH64 (seed 0) of `bytes`, bit-compatible with the reference
/// implementation's published vectors.
///
/// ```
/// assert_eq!(pressio_core::checksum::xxh64(b"abc"), 0x44BC_2CF5_AD77_0999);
/// ```
pub fn xxh64(bytes: &[u8]) -> u64 {
    let mut stripes = bytes.chunks_exact(32);
    let mut h = if bytes.len() >= 32 {
        let mut v1 = XXH_PRIME_1.wrapping_add(XXH_PRIME_2);
        let mut v2 = XXH_PRIME_2;
        let mut v3 = 0u64;
        let mut v4 = 0u64.wrapping_sub(XXH_PRIME_1);
        for stripe in stripes.by_ref() {
            v1 = xxh_round(v1, le64(stripe, 0));
            v2 = xxh_round(v2, le64(stripe, 8));
            v3 = xxh_round(v3, le64(stripe, 16));
            v4 = xxh_round(v4, le64(stripe, 24));
        }
        let h = v1
            .rotate_left(1)
            .wrapping_add(v2.rotate_left(7))
            .wrapping_add(v3.rotate_left(12))
            .wrapping_add(v4.rotate_left(18));
        xxh_merge(xxh_merge(xxh_merge(xxh_merge(h, v1), v2), v3), v4)
    } else {
        XXH_PRIME_5
    };
    h = h.wrapping_add(bytes.len() as u64);

    // The tail: up to three 8-byte words, one 4-byte word, three bytes.
    let mut words = stripes.remainder().chunks_exact(8);
    for word in words.by_ref() {
        h = (h ^ xxh_round(0, le64(word, 0)))
            .rotate_left(27)
            .wrapping_mul(XXH_PRIME_1)
            .wrapping_add(XXH_PRIME_4);
    }
    let mut rest = words.remainder();
    if let Some((half, after)) = rest.split_first_chunk::<4>() {
        h = (h ^ u64::from(u32::from_le_bytes(*half)).wrapping_mul(XXH_PRIME_1))
            .rotate_left(23)
            .wrapping_mul(XXH_PRIME_2)
            .wrapping_add(XXH_PRIME_3);
        rest = after;
    }
    for &byte in rest {
        h = (h ^ u64::from(byte).wrapping_mul(XXH_PRIME_5))
            .rotate_left(11)
            .wrapping_mul(XXH_PRIME_1);
    }

    h ^= h >> 33;
    h = h.wrapping_mul(XXH_PRIME_2);
    h ^= h >> 29;
    h = h.wrapping_mul(XXH_PRIME_3);
    h ^ (h >> 32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn streaming_matches_oneshot() {
        let data: Vec<u8> = (0..=255).collect();
        for split in [0, 1, 100, 255, 256] {
            let mut h = Fnv1a64::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finish(), fnv1a64(&data), "split {split}");
        }
    }

    #[test]
    fn sensitive_to_single_bit_flips_and_truncation() {
        let data = vec![0x5au8; 64];
        let base = fnv1a64(&data);
        for byte in [0, 31, 63] {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(fnv1a64(&flipped), base, "byte {byte} bit {bit}");
            }
        }
        assert_ne!(fnv1a64(&data[..63]), base);
        let mut extended = data.clone();
        extended.push(0);
        assert_ne!(fnv1a64(&extended), base);
    }

    /// XXH64 (seed 0) one byte or word at a time, straight from the
    /// specification: no stripes iterator, no shared helpers beyond the
    /// primes. What [`xxh64`] must agree with at every length.
    fn xxh64_reference(input: &[u8]) -> u64 {
        let word = |at: usize| {
            (0..8).fold(0u64, |w, i| w | u64::from(input[at + i]) << (8 * i))
        };
        let round = |acc: u64, lane: u64| {
            acc.wrapping_add(lane.wrapping_mul(XXH_PRIME_2))
                .rotate_left(31)
                .wrapping_mul(XXH_PRIME_1)
        };
        let mut at = 0;
        let mut h = if input.len() >= 32 {
            let mut v = [
                XXH_PRIME_1.wrapping_add(XXH_PRIME_2),
                XXH_PRIME_2,
                0,
                0u64.wrapping_sub(XXH_PRIME_1),
            ];
            while input.len() - at >= 32 {
                for lane in &mut v {
                    *lane = round(*lane, word(at));
                    at += 8;
                }
            }
            let mut h = v[0]
                .rotate_left(1)
                .wrapping_add(v[1].rotate_left(7))
                .wrapping_add(v[2].rotate_left(12))
                .wrapping_add(v[3].rotate_left(18));
            for lane in v {
                h = (h ^ round(0, lane))
                    .wrapping_mul(XXH_PRIME_1)
                    .wrapping_add(XXH_PRIME_4);
            }
            h
        } else {
            XXH_PRIME_5
        };
        h = h.wrapping_add(input.len() as u64);
        while input.len() - at >= 8 {
            h = (h ^ round(0, word(at)))
                .rotate_left(27)
                .wrapping_mul(XXH_PRIME_1)
                .wrapping_add(XXH_PRIME_4);
            at += 8;
        }
        if input.len() - at >= 4 {
            let half = (0..4).fold(0u64, |w, i| w | u64::from(input[at + i]) << (8 * i));
            h = (h ^ half.wrapping_mul(XXH_PRIME_1))
                .rotate_left(23)
                .wrapping_mul(XXH_PRIME_2)
                .wrapping_add(XXH_PRIME_3);
            at += 4;
        }
        for &byte in &input[at..] {
            h = (h ^ u64::from(byte).wrapping_mul(XXH_PRIME_5))
                .rotate_left(11)
                .wrapping_mul(XXH_PRIME_1);
        }
        h ^= h >> 33;
        h = h.wrapping_mul(XXH_PRIME_2);
        h ^= h >> 29;
        h = h.wrapping_mul(XXH_PRIME_3);
        h ^ (h >> 32)
    }

    #[test]
    fn xxh64_known_answers() {
        // Published XXH64 vectors, seed 0.
        assert_eq!(xxh64(b""), 0xEF46_DB37_51D8_E999);
        assert_eq!(xxh64(b"a"), 0xD24E_C4F1_A98C_6E5B);
        assert_eq!(xxh64(b"abc"), 0x44BC_2CF5_AD77_0999);
        for vector in [&b""[..], b"a", b"abc"] {
            assert_eq!(xxh64_reference(vector), xxh64(vector));
        }
    }

    #[test]
    fn xxh64_matches_the_reference_at_every_length_and_alignment() {
        // 0..=96 crosses every tail shape: whole 32-byte stripes, then up
        // to three 8-byte words, a 4-byte word and three single bytes.
        let data: Vec<u8> = (0..96 + 8).map(|i| (i * 131 + 17) as u8).collect();
        for len in 0..=96 {
            for offset in 0..8 {
                let slice = &data[offset..offset + len];
                assert_eq!(xxh64(slice), xxh64_reference(slice), "len {len} offset {offset}");
            }
        }
        let big: Vec<u8> = (0..(1 << 16) + 13).map(|i| (i * 7 + i / 251) as u8).collect();
        assert_eq!(xxh64(&big[3..]), xxh64_reference(&big[3..]));
    }

    #[test]
    fn xxh64_is_sensitive_to_single_bit_flips_and_truncation() {
        let data = vec![0x5au8; 100];
        let base = xxh64(&data);
        for byte in [0, 31, 32, 63, 64, 95, 96, 99] {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(xxh64(&flipped), base, "byte {byte} bit {bit}");
            }
        }
        assert_ne!(xxh64(&data[..99]), base);
    }

    #[test]
    fn update_u64_is_le_bytes() {
        let mut a = Fnv1a64::new();
        a.update_u64(0x0123_4567_89ab_cdef);
        let mut b = Fnv1a64::new();
        b.update(&0x0123_4567_89ab_cdefu64.to_le_bytes());
        assert_eq!(a.finish(), b.finish());
    }
}
