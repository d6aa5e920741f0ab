//! The 16-bit one's-complement Internet checksum (RFC 1071), as used by
//! UDP.
//!
//! §4.3.4 of the paper turns on a well-known weakness of this checksum:
//! one's-complement addition is commutative, so *reordering* 16-bit words
//! leaves the sum unchanged. "Because the checksum is 16 bits, this can be
//! done by swapping bits that are 16 bits apart. In our case, we corrupted
//! a UDP packet consisting of the string 'Have a lot of fun' to read
//! instead 'veHa a lot of fun'. The checksum was unable to detect this."

/// Computes the one's-complement sum of `data` folded to 16 bits
/// (big-endian word order; odd trailing byte padded with zero).
///
/// Sums in the machine's byte order and swaps once at the end (RFC 1071
/// §2(B)): a little-endian read of a 16-bit word is its big-endian value
/// with the bytes swapped, and swapping commutes with one's-complement
/// addition, so the sum of the swapped words is the swapped sum. Without
/// a swap per read the loop — little-endian `u32` words into a `u64`,
/// carries deferred to the fold — vectorises. An odd trailing byte is the
/// high byte of a big-endian word, so the low byte of a little-endian one.
fn ones_complement_sum(data: &[u8]) -> u16 {
    let mut sum: u64 = 0;
    let mut words = data.chunks_exact(4);
    for word in &mut words {
        sum += u64::from(u32::from_le_bytes([word[0], word[1], word[2], word[3]]));
    }
    let mut rest = words.remainder().chunks_exact(2);
    for pair in &mut rest {
        sum += u64::from(u16::from_le_bytes([pair[0], pair[1]]));
    }
    if let [last] = rest.remainder() {
        sum += u64::from(*last);
    }
    while sum > 0xFFFF {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    (sum as u16).swap_bytes()
}

/// The Internet checksum of `data`: the one's complement of the
/// one's-complement sum.
///
/// # Example
///
/// ```
/// use netfi_netstack::checksum::checksum;
/// // Swapping 16-bit words does not change the checksum:
/// assert_eq!(checksum(b"Have a lot of fun!"), checksum(b"veHa a lot of fun!"));
/// ```
pub fn checksum(data: &[u8]) -> u16 {
    !ones_complement_sum(data)
}

/// The Internet checksum of the concatenation of `parts`, without
/// materialising it.
///
/// One's-complement addition is associative, so the folded sums of the
/// parts add up to the sum of the whole — provided every part except the
/// last has even length (an odd-length part would shift the 16-bit word
/// alignment of everything after it).
pub(crate) fn checksum_parts(parts: &[&[u8]]) -> u16 {
    debug_assert!(
        parts.iter().rev().skip(1).all(|p| p.len() % 2 == 0),
        "only the last part may have odd length"
    );
    let mut sum: u32 = 0;
    for part in parts {
        sum += u32::from(ones_complement_sum(part));
    }
    while sum > 0xFFFF {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    !(sum as u16)
}

/// Verifies data whose checksum has been *included* in the sum: the total
/// must come to `0xFFFF` (all-ones).
///
/// The checksum field must sit on a 16-bit boundary of `data` (as it does
/// in the UDP header); otherwise the word alignment differs from the one
/// the checksum was computed with.
pub fn verify(data_including_checksum: &[u8]) -> bool {
    ones_complement_sum(data_including_checksum) == 0xFFFF
}

#[cfg(test)]
mod tests {
    use super::*;
    use netfi_sim::DetRng;

    /// The reference: big-endian reads, eight bytes at a time (a `u64`
    /// is four 16-bit words; its two 32-bit halves add them at once).
    fn big_endian_sum(data: &[u8]) -> u16 {
        let mut sum: u64 = 0;
        let mut chunks = data.chunks_exact(8);
        for chunk in &mut chunks {
            let w = u64::from_be_bytes([
                chunk[0], chunk[1], chunk[2], chunk[3], chunk[4], chunk[5], chunk[6], chunk[7],
            ]);
            sum += (w >> 32) + (w & 0xFFFF_FFFF);
        }
        let mut rest = chunks.remainder().chunks_exact(2);
        for chunk in &mut rest {
            sum += u64::from(u16::from_be_bytes([chunk[0], chunk[1]]));
        }
        if let [last] = rest.remainder() {
            sum += u64::from(u16::from_be_bytes([*last, 0]));
        }
        while sum > 0xFFFF {
            sum = (sum & 0xFFFF) + (sum >> 16);
        }
        sum as u16
    }

    #[test]
    fn native_order_sum_matches_the_big_endian_reference_at_every_length() {
        let mut rng = DetRng::new(0xC5C5_1071);
        let mut data = vec![0u8; 2_048];
        for fill in [0x00, 0xFF, 0x5A] {
            data.fill(fill);
            for len in 0..=data.len() {
                assert_eq!(
                    ones_complement_sum(&data[..len]),
                    big_endian_sum(&data[..len])
                );
            }
        }
        rng.fill_bytes(&mut data);
        for len in 0..=data.len() {
            assert_eq!(
                ones_complement_sum(&data[..len]),
                big_endian_sum(&data[..len]),
                "length {len}"
            );
            // The same bytes from an odd address.
            let tail = &data[data.len() - len..];
            assert_eq!(
                ones_complement_sum(tail),
                big_endian_sum(tail),
                "tail {len}"
            );
        }
    }

    #[test]
    fn parts_split_at_random_even_points_sum_to_the_whole() {
        let mut rng = DetRng::new(0x0DD5_2B1A);
        for _ in 0..2_000 {
            let mut data = vec![0u8; rng.gen_index(1_600)];
            rng.fill_bytes(&mut data);
            let mut cuts: Vec<usize> = (0..rng.gen_index(4))
                .map(|_| rng.gen_index(data.len() / 2 + 1) * 2)
                .collect();
            cuts.sort_unstable();
            let mut parts = Vec::new();
            let mut from = 0;
            for cut in cuts {
                parts.push(&data[from..cut]);
                from = cut;
            }
            parts.push(&data[from..]);
            assert_eq!(
                checksum_parts(&parts),
                !big_endian_sum(&data),
                "cuts of {}",
                data.len()
            );
        }
    }

    #[test]
    fn known_rfc1071_example() {
        // RFC 1071 example: bytes 00 01 f2 03 f4 f5 f6 f7 sum to ddf2
        // (before complement).
        let data = [0x00, 0x01, 0xF2, 0x03, 0xF4, 0xF5, 0xF6, 0xF7];
        assert_eq!(ones_complement_sum(&data), 0xDDF2);
        assert_eq!(checksum(&data), !0xDDF2);
    }

    #[test]
    fn empty_and_odd_lengths() {
        assert_eq!(checksum(&[]), 0xFFFF);
        // Odd byte padded with zero on the right.
        assert_eq!(
            ones_complement_sum(&[0xAB]),
            ones_complement_sum(&[0xAB, 0x00])
        );
    }

    #[test]
    fn verify_roundtrip() {
        let mut data = b"checksummed payload!".to_vec(); // even length
        let ck = checksum(&data);
        data.extend_from_slice(&ck.to_be_bytes());
        assert!(verify(&data));
        data[0] ^= 0x01;
        assert!(!verify(&data));
    }

    #[test]
    fn word_swap_is_undetectable() {
        // The paper's §4.3.4 experiment.
        let original = b"Have a lot of fun!";
        let mut swapped = original.to_vec();
        swapped.swap(0, 2);
        swapped.swap(1, 3);
        assert_eq!(&swapped[..4], b"veHa");
        assert_eq!(checksum(original), checksum(&swapped));
    }

    #[test]
    fn single_bit_flips_are_detected() {
        let data = b"some datagram contents here";
        let ck = checksum(data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut corrupted = data.to_vec();
                corrupted[byte] ^= 1 << bit;
                assert_ne!(checksum(&corrupted), ck, "missed {byte}:{bit}");
            }
        }
    }

    #[test]
    fn aligned_word_swaps_anywhere_are_undetectable() {
        let data = b"0123456789abcdef";
        let ck = checksum(data);
        for i in (0..data.len() - 2).step_by(2) {
            let mut swapped = data.to_vec();
            swapped.swap(i, i + 2);
            swapped.swap(i + 1, i + 3);
            assert_eq!(checksum(&swapped), ck, "swap at {i}");
        }
    }

    #[test]
    fn carry_folding() {
        // Many 0xFFFF words force carries to wrap correctly.
        let data = vec![0xFF; 64];
        let s = ones_complement_sum(&data);
        assert_eq!(s, 0xFFFF);
    }
}
