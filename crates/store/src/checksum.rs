//! Dependency-free content hashing: the word-parallel envelope checksum,
//! FNV-1a/64, and a doubled 128-bit FNV variant for cache addressing.
//!
//! None of these is cryptographic — the store defends against
//! *accidents* (truncation, bit rot, concurrent half-writes), not
//! adversaries. For cache keys the two independent 64-bit passes make
//! accidental collisions across a few thousand experiment configs
//! negligible, and [`crate::cache::ResultCache`] additionally stores the
//! full canonical key text so even a collision degrades to a cache miss,
//! never a wrong result.

const OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const PRIME: u64 = 0x100_0000_01B3;

/// Independent lanes of [`envelope_checksum`]; a 128-byte block feeds
/// each one word. A lane's multiply waits on its previous one, so the
/// lane count sets how many multiplies are in flight: sixteen ran a
/// 1.7 MB body in half the time eight did (docs/PERF.md).
const LANES: usize = 16;

/// FNV-1a/64 of `bytes`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_seeded(OFFSET, bytes)
}

fn fnv1a64_seeded(seed: u64, bytes: &[u8]) -> u64 {
    let mut hash = seed;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

/// The checksum of an envelope body (format v2; docs/CHECKPOINT.md
/// specifies it for outside readers).
///
/// The body is read as little-endian `u64` words; word `n` steps lane
/// `n % 16`, each lane seeded `FNV_OFFSET ^ lane`. A final partial word
/// is zero-padded. The lanes are then folded in order into
/// `FNV_OFFSET` with the same step, and the body's byte length last.
/// Every step is a bijection in the state and in the word, so any damage
/// confined to one 8-byte word — every single-bit flip — changes the
/// result, and the folded length tells a zero-padded tail from zero
/// bytes.
///
/// FNV-1a multiplies once per *byte* in one dependency chain; this
/// multiplies once per *word* in sixteen independent ones (docs/PERF.md,
/// "The 100k dist epoch budget", has what that is worth per frame).
pub fn envelope_checksum(bytes: &[u8]) -> u64 {
    let mut lanes: [u64; LANES] = std::array::from_fn(|i| OFFSET ^ i as u64);
    let mut blocks = bytes.chunks_exact(8 * LANES);
    for block in &mut blocks {
        // Read the block's words first, then step the lanes: two
        // fixed-length loops the compiler turns into vector code.
        let words: [u64; LANES] = std::array::from_fn(|i| {
            u64::from_le_bytes(block[8 * i..8 * i + 8].try_into().expect("8-byte word"))
        });
        for (lane, word) in lanes.iter_mut().zip(words) {
            *lane = mix(*lane, word);
        }
    }
    for (lane, word) in lanes.iter_mut().zip(blocks.remainder().chunks(8)) {
        let mut padded = [0u8; 8];
        padded[..word.len()].copy_from_slice(word);
        *lane = mix(*lane, u64::from_le_bytes(padded));
    }
    let folded = lanes.iter().fold(OFFSET, |hash, &lane| mix(hash, lane));
    mix(folded, bytes.len() as u64)
}

/// One step of [`envelope_checksum`]: `x = state ^ word`, then
/// `(x ^ (x >> 32)) * FNV_PRIME`. A multiply by an odd constant alone
/// would carry a flipped top bit through as a flipped top bit, which one
/// more flip in the lane's next word cancels; folding the high half
/// down first leaves no single-bit input difference a single-bit output
/// difference.
#[inline(always)]
fn mix(state: u64, word: u64) -> u64 {
    let x = state ^ word;
    (x ^ (x >> 32)).wrapping_mul(PRIME)
}

/// A 128-bit content address as 32 lowercase hex digits: the standard
/// FNV-1a/64 pass concatenated with a second pass from a perturbed
/// offset basis (equivalent to hashing a one-byte domain prefix).
pub fn content_address(bytes: &[u8]) -> String {
    let first = fnv1a64_seeded(OFFSET, bytes);
    let second = fnv1a64_seeded(OFFSET.wrapping_mul(PRIME) ^ 0xA5, bytes);
    format!("{first:016x}{second:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_reference_vectors() {
        // Published FNV-1a/64 test vectors.
        assert_eq!(fnv1a64(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171F73967E8);
    }

    #[test]
    fn single_bit_changes_the_hash() {
        assert_ne!(fnv1a64(b"epoch=12"), fnv1a64(b"epoch=13"));
    }

    #[test]
    fn content_address_is_stable_and_input_sensitive() {
        let a = content_address(b"scenario-a");
        assert_eq!(a, content_address(b"scenario-a"));
        assert_eq!(a.len(), 32);
        assert!(a.chars().all(|c| c.is_ascii_hexdigit()));
        assert_ne!(a, content_address(b"scenario-b"));
        // The two halves are independent passes, not copies.
        assert_ne!(a[..16], a[16..]);
    }
}
