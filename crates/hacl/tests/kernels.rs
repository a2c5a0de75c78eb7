//! The compression kernels and the zero-block resume against the scalar
//! reference.
//!
//! * SHA-NI and scalar must agree bit for bit over random lengths and
//!   split points, and over HMAC states resumed from an [`HmacKey`]'s
//!   midstates. On a CPU without the SHA extensions these properties skip
//!   (the scalar kernel is then the only one that runs).
//! * [`Sha256::digest_public`] must equal the scalar digest from the
//!   initial hash value for every zero-prefix length, at the padding edges,
//!   and with a lone non-zero byte closing a block.
//!
//! The published vectors run through both kernels in `vectors.rs`.

use hacl::sha256::MAX_ZERO_BLOCKS;
use hacl::{HmacKey, Kernel, Sha256};
use proptest::collection::vec as pvec;
use proptest::prelude::*;

/// The scalar reference digest, from the initial hash value.
fn scalar_digest(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::with_kernel(Kernel::Scalar);
    h.update(data);
    h.finalize()
}

/// Hashes `data` on `kernel` in three updates cut at `a` and `b`.
fn split_digest(kernel: Kernel, data: &[u8], a: usize, b: usize) -> [u8; 32] {
    let (a, b) = (a.min(b), a.max(b));
    let mut h = Sha256::with_kernel(kernel);
    h.update(&data[..a]);
    h.update(&data[a..b]);
    h.update(&data[b..]);
    h.finalize()
}

fn shani_here() -> bool {
    let ok = Kernel::ShaNi.is_supported();
    if !ok {
        eprintln!("kernels: no SHA extensions on this CPU, SHA-NI properties skipped");
    }
    ok
}

proptest! {
    /// Any length up to 2 KiB plus 64 bytes, cut anywhere twice: both
    /// kernels give the scalar one-shot digest.
    #[test]
    fn shani_matches_scalar_over_lengths_and_splits(
        data in pvec(any::<u8>(), 0..2112),
        cut_a in any::<usize>(),
        cut_b in any::<usize>(),
    ) {
        let want = scalar_digest(&data);
        let (a, b) = (cut_a % (data.len() + 1), cut_b % (data.len() + 1));
        prop_assert_eq!(split_digest(Kernel::Scalar, &data, a, b), want);
        if Kernel::ShaNi.is_supported() {
            prop_assert_eq!(split_digest(Kernel::ShaNi, &data, a, b), want);
        }
    }

    /// HMAC from a key's precomputed midstates (short, block-sized and
    /// hashed long keys), with the message state cloned mid-stream and
    /// resumed: both kernels give the scalar tag.
    #[test]
    fn shani_matches_scalar_from_hmac_midstates(
        key in pvec(any::<u8>(), 0..160),
        msg in pvec(any::<u8>(), 0..600),
        cut in any::<usize>(),
    ) {
        let want = HmacKey::with_kernel(&key, Kernel::Scalar).mac(&msg);
        let cut = cut % (msg.len() + 1);
        for kernel in Kernel::ALL.into_iter().filter(|k| k.is_supported()) {
            let hk = HmacKey::with_kernel(&key, kernel);
            prop_assert_eq!(hk.mac(&msg), want);
            let mut head = hk.begin();
            head.update(&msg[..cut]);
            let mut resumed = head.clone();
            resumed.update(&msg[cut..]);
            prop_assert_eq!(resumed.finalize(), want);
            prop_assert!(hk.verify(&msg, &want));
        }
    }
}

#[test]
fn kernels_agree_on_edge_blocks() {
    if !shani_here() {
        return;
    }
    let blocks: [[u8; 64]; 4] =
        [[0x00; 64], [0xff; 64], [0x80; 64], core::array::from_fn(|i| i as u8)];
    for len in [0usize, 1, 55, 56, 57, 63, 64, 65, 119, 120, 128, 256] {
        let data: Vec<u8> = blocks.iter().flatten().copied().cycle().take(len).collect();
        assert_eq!(split_digest(Kernel::ShaNi, &data, 0, 0), scalar_digest(&data), "len {len}");
    }
}

/// Tails at the padding edges and around a block boundary.
const TAIL_LENS: [usize; 8] = [0, 1, 55, 56, 57, 63, 64, 65];

#[test]
fn digest_public_matches_scalar_for_every_zero_prefix() {
    for zero_blocks in 0..=32usize {
        for tail in TAIL_LENS {
            // A non-zero tail: the run of zero blocks ends exactly at the
            // prefix (when the tail spans a whole block).
            let mut data = vec![0u8; 64 * zero_blocks];
            data.extend((0..tail).map(|i| (i as u8).wrapping_mul(37).wrapping_add(1)));
            assert_eq!(
                Sha256::digest_public(&data),
                scalar_digest(&data),
                "{zero_blocks} zero blocks + {tail}-byte tail"
            );
            // An all-zero tail: the whole input is zeros, partial block
            // and padding edge included.
            let zeros = vec![0u8; 64 * zero_blocks + tail];
            assert_eq!(Sha256::digest_public(&zeros), scalar_digest(&zeros), "all zero");
        }
        // A lone non-zero byte as the last byte of the block after the run:
        // the block must not count as zero.
        let mut data = vec![0u8; 64 * (zero_blocks + 1)];
        *data.last_mut().unwrap() = 1;
        assert_eq!(Sha256::digest_public(&data), scalar_digest(&data), "{zero_blocks} + last byte");
    }
}

#[test]
fn digest_public_matches_scalar_at_and_past_the_table_end() {
    let zeros = vec![0u8; 64 * MAX_ZERO_BLOCKS];
    assert_eq!(zeros.len(), 64 * 1024, "the table covers 64 KiB");
    assert_eq!(Sha256::digest_public(&zeros), scalar_digest(&zeros), "64 KiB of zeros");
    for tail in TAIL_LENS {
        // Past the table: the skip stops at MAX_ZERO_BLOCKS and the rest,
        // zero or not, is compressed.
        let mut data = vec![0u8; 64 * (MAX_ZERO_BLOCKS + 2) + tail];
        assert_eq!(Sha256::digest_public(&data), scalar_digest(&data), "zeros + {tail}");
        if let Some(last) = data.last_mut() {
            *last = 0xA5;
        }
        assert_eq!(Sha256::digest_public(&data), scalar_digest(&data), "zeros, {tail}, A5");
    }
}
