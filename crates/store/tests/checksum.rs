//! The contract of the envelope body checksum (docs/CHECKPOINT.md,
//! "The body checksum"): equal to a plain word-at-a-time transcription of
//! its definition at every length, and sensitive to the damage a link or
//! a disk does — bit flips, swapped words, truncation, a stray byte.

use fedl_store::envelope_checksum;

const OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const PRIME: u64 = 0x100_0000_01B3;

/// The definition, one word at a time: word `n` (zero-padded if partial)
/// steps lane `n % 16`, the lanes fold in order, the length folds last.
fn reference(bytes: &[u8]) -> u64 {
    let step = |state: u64, word: u64| {
        let x = state ^ word;
        (x ^ (x >> 32)).wrapping_mul(PRIME)
    };
    let mut lanes = [0u64; 16];
    for (i, lane) in lanes.iter_mut().enumerate() {
        *lane = OFFSET ^ i as u64;
    }
    for (n, chunk) in bytes.chunks(8).enumerate() {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        lanes[n % 16] = step(lanes[n % 16], u64::from_le_bytes(word));
    }
    let mut hash = OFFSET;
    for lane in lanes {
        hash = step(hash, lane);
    }
    step(hash, bytes.len() as u64)
}

/// `len` seeded pseudo-random bytes (xorshift64).
fn body(len: usize, seed: u64) -> Vec<u8> {
    let mut s = seed | 1;
    (0..len)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s as u8
        })
        .collect()
}

#[test]
fn equals_the_word_at_a_time_definition_at_every_length() {
    // 0..=300 crosses the 8-byte word and the 128-byte block boundary
    // from both sides, twice.
    let bytes = body(300, 0xC4EC);
    for len in 0..=bytes.len() {
        assert_eq!(envelope_checksum(&bytes[..len]), reference(&bytes[..len]), "length {len}");
    }
    // A text body like a frame's, and the all-zero and all-ones bodies.
    let text: Vec<u8> = bytes.iter().map(|b| b'A' + b % 26).collect();
    for b in [text, vec![0; 300], vec![0xFF; 300]] {
        for len in [0, 1, 7, 8, 9, 127, 128, 129, 255, 256, 257, 300] {
            assert_eq!(envelope_checksum(&b[..len]), reference(&b[..len]), "length {len}");
        }
    }
}

#[test]
fn published_values_hold() {
    // The vectors docs/CHECKPOINT.md gives an outside reader.
    assert_eq!(envelope_checksum(b""), 0x75FC_8631_A766_62C2);
    assert_eq!(envelope_checksum(b"a"), 0x3D51_0673_F356_A55F);
    assert_eq!(envelope_checksum(b"foobar"), 0xD81E_77BF_129E_3447);
    // 200 bytes: one whole 128-byte block, nine more words, no partial one.
    assert_eq!(envelope_checksum("fedl-store".repeat(20).as_bytes()), 0x37AB_FDBC_6F10_D3F2);
}

#[test]
fn every_single_bit_flip_of_a_kilobyte_is_detected() {
    let mut bytes = body(1024, 0xF11B);
    let clean = envelope_checksum(&bytes);
    for bit in 0..bytes.len() * 8 {
        bytes[bit / 8] ^= 1 << (bit % 8);
        assert_ne!(envelope_checksum(&bytes), clean, "bit {bit}");
        bytes[bit / 8] ^= 1 << (bit % 8);
    }
}

#[test]
fn every_pair_of_bit_flips_in_256_bytes_is_detected() {
    // Two blocks: the pairs include a flip in a word and one in the word
    // that steps the same lane next — where a bare multiply would let a
    // flipped top bit cancel against the next word's.
    let mut bytes = body(256, 0x2B17);
    let clean = envelope_checksum(&bytes);
    let bits = bytes.len() * 8;
    for i in 0..bits {
        bytes[i / 8] ^= 1 << (i % 8);
        for j in i + 1..bits {
            bytes[j / 8] ^= 1 << (j % 8);
            assert_ne!(envelope_checksum(&bytes), clean, "bits {i} and {j}");
            bytes[j / 8] ^= 1 << (j % 8);
        }
        bytes[i / 8] ^= 1 << (i % 8);
    }
}

#[test]
fn swapping_two_unequal_words_is_detected() {
    // 64 words: pairs that share a lane (16 words apart) and pairs that
    // do not, inside one block and across blocks.
    let bytes = body(512, 0x5A9);
    let clean = envelope_checksum(&bytes);
    let words = bytes.len() / 8;
    let mut same_lane = 0;
    for a in 0..words {
        for b in a + 1..words {
            let (wa, wb) = (a * 8..a * 8 + 8, b * 8..b * 8 + 8);
            if bytes[wa.clone()] == bytes[wb.clone()] {
                continue;
            }
            let mut swapped = bytes.clone();
            swapped[wa.clone()].copy_from_slice(&bytes[wb.clone()]);
            swapped[wb].copy_from_slice(&bytes[wa]);
            assert_ne!(envelope_checksum(&swapped), clean, "words {a} and {b}");
            same_lane += usize::from((b - a) % 16 == 0);
        }
    }
    assert!(same_lane > 0);
}

#[test]
fn truncation_and_a_stray_byte_are_detected() {
    for len in [64, 65, 127, 128, 129, 200, 1000] {
        let bytes = body(len, len as u64);
        let clean = envelope_checksum(&bytes);
        for cut in 1..=64 {
            assert_ne!(envelope_checksum(&bytes[..len - cut]), clean, "{len} cut by {cut}");
        }
        // A zero byte lands in the zero padding of a partial last word:
        // the lanes are unchanged, and only the folded length tells.
        let mut longer = bytes.clone();
        longer.push(0);
        assert_ne!(envelope_checksum(&longer), clean, "{len} plus a zero byte");
    }
}
