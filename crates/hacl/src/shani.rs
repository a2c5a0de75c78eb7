//! SHA-256 compression on the x86-64 SHA extensions (SHA-NI).
//!
//! `sha256rnds2` runs two rounds on the working state held as two
//! registers, `ABEF` and `CDGH`; `sha256msg1`/`sha256msg2` extend the
//! message schedule four words at a time. One 64-byte block is 32
//! `sha256rnds2` issues, several times faster than the scalar rounds in
//! [`crate::sha256`], which stay the fallback and the reference.
//!
//! The kernel is compiled for `sha`, `ssse3` and `sse4.1` and only entered
//! after all three are detected at run time, so the crate builds and runs
//! on any x86-64 (and any other) target.

#![allow(unsafe_code)]

/// Whether this CPU can run the kernel.
pub(crate) fn supported() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("sha")
            && std::arch::is_x86_feature_detected!("ssse3")
            && std::arch::is_x86_feature_detected!("sse4.1")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Compresses a whole span of 64-byte blocks into `state`.
///
/// # Panics
///
/// If the CPU lacks the SHA extensions (a [`crate::sha256::Kernel::ShaNi`]
/// hasher is only ever built after [`supported`] said yes; the check here
/// is one cached feature-word test per call, not per block).
pub(crate) fn compress_blocks(state: &mut [u32; 8], data: &[u8]) {
    assert!(supported(), "SHA-NI kernel entered on a CPU without the SHA extensions");
    #[cfg(target_arch = "x86_64")]
    // SAFETY: the target features `x86::compress` is compiled for were
    // detected just above.
    unsafe {
        x86::compress(state, data);
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use crate::sha256::K;
    use core::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi32,
        _mm_set_epi64x, _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32,
        _mm_shuffle_epi32, _mm_shuffle_epi8, _mm_storeu_si128,
    };

    /// Four rounds: `$w` holds the schedule words `W[4i..4i + 4]` (lane 0
    /// first). Each `sha256rnds2` consumes the low two lanes of `W + K`;
    /// after it, the register named `cdgh` holds the new `ABEF` and `abef`
    /// the new `CDGH`, so the second call swaps the roles back.
    macro_rules! rounds4 {
        ($abef:ident, $cdgh:ident, $w:expr, $i:literal) => {{
            let k = _mm_set_epi32(
                K[4 * $i + 3] as i32,
                K[4 * $i + 2] as i32,
                K[4 * $i + 1] as i32,
                K[4 * $i] as i32,
            );
            let wk = _mm_add_epi32($w, k);
            $cdgh = _mm_sha256rnds2_epu32($cdgh, $abef, wk);
            $abef = _mm_sha256rnds2_epu32($abef, $cdgh, _mm_shuffle_epi32::<0x0E>(wk));
        }};
    }

    /// The next four schedule words from the previous sixteen (`$w0` the
    /// oldest quad), written over `$w0`, then four rounds on them.
    macro_rules! schedule_rounds4 {
        ($abef:ident, $cdgh:ident, $w0:ident, $w1:ident, $w2:ident, $w3:ident, $i:literal) => {{
            let sigma0 = _mm_sha256msg1_epu32($w0, $w1);
            let w7 = _mm_alignr_epi8::<4>($w3, $w2);
            $w0 = _mm_sha256msg2_epu32(_mm_add_epi32(sigma0, w7), $w3);
            rounds4!($abef, $cdgh, $w0, $i);
        }};
    }

    /// # Safety
    ///
    /// The CPU must support `sha`, `ssse3` and `sse4.1`.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) unsafe fn compress(state: &mut [u32; 8], data: &[u8]) {
        debug_assert_eq!(data.len() % 64, 0);
        // Reverses the bytes of every 32-bit lane: message words are
        // big-endian.
        let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        macro_rules! load {
            ($bytes:expr) => {
                _mm_shuffle_epi8(_mm_loadu_si128($bytes.as_ptr().cast::<__m128i>()), bswap)
            };
        }

        // (a, b, c, d), (e, f, g, h) → ABEF = (f, e, b, a), CDGH = (h, g, d, c)
        // by lane, lane 0 first.
        let abcd = _mm_loadu_si128(state.as_ptr().cast());
        let efgh = _mm_loadu_si128(state[4..].as_ptr().cast());
        let badc = _mm_shuffle_epi32::<0xB1>(abcd);
        let hgfe = _mm_shuffle_epi32::<0x1B>(efgh);
        let mut abef = _mm_alignr_epi8::<8>(badc, hgfe);
        let mut cdgh = _mm_blend_epi16::<0xF0>(hgfe, badc);

        for block in data.chunks_exact(64) {
            let (abef_in, cdgh_in) = (abef, cdgh);
            let mut w0 = load!(block[0..16]);
            let mut w1 = load!(block[16..32]);
            let mut w2 = load!(block[32..48]);
            let mut w3 = load!(block[48..64]);
            rounds4!(abef, cdgh, w0, 0);
            rounds4!(abef, cdgh, w1, 1);
            rounds4!(abef, cdgh, w2, 2);
            rounds4!(abef, cdgh, w3, 3);
            schedule_rounds4!(abef, cdgh, w0, w1, w2, w3, 4);
            schedule_rounds4!(abef, cdgh, w1, w2, w3, w0, 5);
            schedule_rounds4!(abef, cdgh, w2, w3, w0, w1, 6);
            schedule_rounds4!(abef, cdgh, w3, w0, w1, w2, 7);
            schedule_rounds4!(abef, cdgh, w0, w1, w2, w3, 8);
            schedule_rounds4!(abef, cdgh, w1, w2, w3, w0, 9);
            schedule_rounds4!(abef, cdgh, w2, w3, w0, w1, 10);
            schedule_rounds4!(abef, cdgh, w3, w0, w1, w2, 11);
            schedule_rounds4!(abef, cdgh, w0, w1, w2, w3, 12);
            schedule_rounds4!(abef, cdgh, w1, w2, w3, w0, 13);
            schedule_rounds4!(abef, cdgh, w2, w3, w0, w1, 14);
            schedule_rounds4!(abef, cdgh, w3, w0, w1, w2, 15);
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }

        // Back to (a, b, c, d), (e, f, g, h).
        let feba = _mm_shuffle_epi32::<0x1B>(abef);
        let ghcd = _mm_shuffle_epi32::<0xB1>(cdgh);
        let abcd = _mm_blend_epi16::<0xF0>(feba, ghcd);
        let efgh = _mm_alignr_epi8::<8>(ghcd, feba);
        _mm_storeu_si128(state.as_mut_ptr().cast(), abcd);
        _mm_storeu_si128(state[4..].as_mut_ptr().cast(), efgh);
    }
}
