//! FIPS 180-4 SHA-256.
//!
//! Supports both the convenient one-shot [`Sha256::digest`] and the
//! incremental [`Sha256::update`] / [`Sha256::finalize`] interface used by
//! [`crate::hmac`] and by the attestation substrate when hashing large
//! memory regions in chunks.
//!
//! # Kernels
//!
//! Blocks are compressed by the [`Kernel`] the process detected once: the
//! x86-64 SHA extensions where the CPU has them, the portable scalar
//! rounds otherwise. Setting `HACL_FORCE_SCALAR` (to anything but `0` or
//! the empty string) selects the scalar kernel everywhere. Both kernels
//! produce identical digests; [`Sha256::with_kernel`] pins one explicitly,
//! so tests can run both in one process.
//!
//! # Zero blocks of public inputs
//!
//! [`Sha256::digest_public`] resumes from a precomputed table of states
//! after `k` all-zero blocks (`k` ≤ [`MAX_ZERO_BLOCKS`]), so an input that
//! starts with a run of zero blocks costs only its tail. Its time depends
//! on the input's bytes: it is for public data only, never key material.

use crate::Digest;
use std::sync::OnceLock;

/// Round constants: first 32 bits of the fractional parts of the cube roots
/// of the first 64 primes (FIPS 180-4 §4.2.2).
pub(crate) const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Initial hash value: first 32 bits of the fractional parts of the square
/// roots of the first 8 primes (FIPS 180-4 §5.3.3).
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Most leading zero blocks [`Sha256::digest_public`] skips: 1024 blocks
/// (64 KiB) covers any output region an MSP430 address space can hold.
pub const MAX_ZERO_BLOCKS: usize = 1024;

/// A SHA-256 block-compression kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kernel {
    /// Portable scalar rounds: the fallback, the reference, and what
    /// `HACL_FORCE_SCALAR` selects.
    Scalar,
    /// The x86-64 SHA extensions (`sha256rnds2`, `sha256msg1/2`).
    ShaNi,
}

impl Kernel {
    /// Every kernel, supported on this CPU or not.
    pub const ALL: [Kernel; 2] = [Kernel::Scalar, Kernel::ShaNi];

    /// The kernel this process hashes with, detected once: the scalar one
    /// under `HACL_FORCE_SCALAR`, otherwise the fastest this CPU runs.
    #[must_use]
    pub fn detected() -> Kernel {
        static KERNEL: OnceLock<Kernel> = OnceLock::new();
        *KERNEL.get_or_init(|| {
            let forced =
                std::env::var_os("HACL_FORCE_SCALAR").is_some_and(|v| !v.is_empty() && v != "0");
            if !forced && Kernel::ShaNi.is_supported() {
                Kernel::ShaNi
            } else {
                Kernel::Scalar
            }
        })
    }

    /// Whether this CPU can run the kernel.
    #[must_use]
    pub fn is_supported(self) -> bool {
        match self {
            Kernel::Scalar => true,
            Kernel::ShaNi => crate::shani::supported(),
        }
    }

    /// Short label for diagnostics and bench output.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Kernel::Scalar => "scalar",
            Kernel::ShaNi => "sha-ni",
        }
    }
}

/// Incremental SHA-256 hasher.
///
/// # Examples
///
/// ```
/// use hacl::Sha256;
///
/// let mut h = Sha256::new();
/// h.update(b"ab");
/// h.update(b"c");
/// assert_eq!(h.finalize(), Sha256::digest(b"abc"));
/// ```
#[derive(Clone, Debug)]
pub struct Sha256 {
    state: [u32; 8],
    /// Total message length in bytes processed so far (including buffered).
    len: u64,
    buf: [u8; 64],
    buf_len: usize,
    kernel: Kernel,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher in the FIPS 180-4 initial state, compressing
    /// with [`Kernel::detected`].
    #[must_use]
    pub fn new() -> Self {
        Self { state: H0, len: 0, buf: [0u8; 64], buf_len: 0, kernel: Kernel::detected() }
    }

    /// A fresh hasher that compresses with `kernel`.
    ///
    /// # Panics
    ///
    /// If this CPU cannot run `kernel` (see [`Kernel::is_supported`]).
    #[must_use]
    pub fn with_kernel(kernel: Kernel) -> Self {
        assert!(kernel.is_supported(), "{} kernel is not supported on this CPU", kernel.label());
        Self { kernel, ..Self::new() }
    }

    /// One-shot digest of `data`.
    ///
    /// # Examples
    ///
    /// ```
    /// let d = hacl::Sha256::digest(b"");
    /// assert_eq!(d[..4], [0xe3, 0xb0, 0xc4, 0x42]);
    /// ```
    #[must_use]
    pub fn digest(data: &[u8]) -> Digest {
        let mut h = Self::new();
        h.update(data);
        h.finalize()
    }

    /// One-shot digest of a **public** input, skipping its leading
    /// all-zero 64-byte blocks.
    ///
    /// Equal to [`Sha256::digest`] for every input. Instead of compressing
    /// the first `k` blocks when they are all zero (`k` ≤
    /// [`MAX_ZERO_BLOCKS`]), it resumes from the state after `k` zero
    /// blocks, read from a 32 KiB table built once per process. The time
    /// it takes therefore reveals where the input's first non-zero byte
    /// is: use it for data the verifier receives in the clear (an attested
    /// output region), never for key material.
    ///
    /// # Examples
    ///
    /// ```
    /// use hacl::Sha256;
    ///
    /// let mut log = vec![0u8; 2048];
    /// log[2040] = 7;
    /// assert_eq!(Sha256::digest_public(&log), Sha256::digest(&log));
    /// ```
    #[must_use]
    pub fn digest_public(data: &[u8]) -> Digest {
        // A branch-free OR over each block, which the compiler vectorises
        // (≈ 30 ns for 2 KiB of zeros).
        let zero_blocks = data
            .chunks_exact(64)
            .take(MAX_ZERO_BLOCKS)
            .take_while(|block| block.iter().fold(0, |acc, &x| acc | x) == 0)
            .count();
        let mut h =
            Self::resume(zero_block_states()[zero_blocks], zero_blocks as u64, Kernel::detected());
        h.update(&data[64 * zero_blocks..]);
        h.finalize()
    }

    /// A hasher resumed from `state`, the chaining value after `blocks`
    /// whole 64-byte blocks (an HMAC pad midstate, a zero-run state).
    pub(crate) fn resume(state: [u32; 8], blocks: u64, kernel: Kernel) -> Self {
        Self { state, len: 64 * blocks, buf: [0u8; 64], buf_len: 0, kernel }
    }

    /// The chaining value; only a midstate at a block boundary.
    pub(crate) fn block_state(&self) -> [u32; 8] {
        debug_assert_eq!(self.buf_len, 0, "a midstate exists only at a block boundary");
        self.state
    }

    /// Absorbs `data` into the hash state.
    ///
    /// Whole blocks are compressed directly from `data` in a single
    /// multi-block `compress_blocks` call — no per-block copy
    /// through the internal buffer; only a trailing partial block is
    /// buffered.
    pub fn update(&mut self, data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buf_len > 0 {
            let take = rest.len().min(64 - self.buf_len);
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len == 64 {
                let block = self.buf;
                self.compress_blocks(&block);
                self.buf_len = 0;
            }
        }
        let whole = rest.len() & !63;
        if whole > 0 {
            let (blocks, tail) = rest.split_at(whole);
            self.compress_blocks(blocks);
            rest = tail;
        }
        if !rest.is_empty() {
            self.buf[..rest.len()].copy_from_slice(rest);
            self.buf_len = rest.len();
        }
    }

    /// Applies FIPS 180-4 padding and returns the final digest, consuming the
    /// hasher.
    #[must_use]
    pub fn finalize(mut self) -> Digest {
        let bit_len = self.len.wrapping_mul(8);
        // Padding: 0x80, then zeros to 56 mod 64, then the 64-bit length.
        self.update(&[0x80]);
        if self.buf_len > 56 {
            // No room for the length field: pad out this block first.
            self.buf[self.buf_len..].fill(0);
            let block = self.buf;
            self.compress_blocks(&block);
            self.buf_len = 0;
        }
        self.buf[self.buf_len..56].fill(0);
        // Do not route the length through update(): it would perturb self.len.
        self.buf[56..64].copy_from_slice(&bit_len.to_be_bytes());
        let block = self.buf;
        self.compress_blocks(&block);
        let mut out = [0u8; 32];
        for (i, w) in self.state.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&w.to_be_bytes());
        }
        out
    }

    /// Compresses a whole span of 64-byte blocks in one call.
    fn compress_blocks(&mut self, data: &[u8]) {
        compress_blocks(self.kernel, &mut self.state, data);
    }
}

/// Compresses a whole span of 64-byte blocks into `state` with `kernel`.
pub(crate) fn compress_blocks(kernel: Kernel, state: &mut [u32; 8], data: &[u8]) {
    match kernel {
        Kernel::Scalar => compress_blocks_scalar(state, data),
        Kernel::ShaNi => crate::shani::compress_blocks(state, data),
    }
}

/// `table[k]` is the state after compressing `k` all-zero blocks from the
/// initial hash value, for `k` in `0..=MAX_ZERO_BLOCKS`.
fn zero_block_states() -> &'static [[u32; 8]] {
    static TABLE: OnceLock<Vec<[u32; 8]>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut state = H0;
        let mut table = Vec::with_capacity(MAX_ZERO_BLOCKS + 1);
        table.push(state);
        for _ in 0..MAX_ZERO_BLOCKS {
            compress_blocks(Kernel::detected(), &mut state, &[0u8; 64]);
            table.push(state);
        }
        table
    })
}

/// The portable scalar kernel.
///
/// The working variables live in registers across the entire span and
/// the message schedule array is filled straight from the input, so
/// hashing large regions (SW-Att attests multi-kilobyte ER images per
/// proof) pays the state load/store once per span instead of once per
/// block.
fn compress_blocks_scalar(state: &mut [u32; 8], data: &[u8]) {
    debug_assert_eq!(data.len() % 64, 0);
    let mut st = *state;
    for block in data.chunks_exact(64) {
        // Rolling 16-word message schedule: w[t mod 16] is expanded in
        // place as the rounds consume it, so the schedule lives in
        // registers/L1 instead of a 64-word array, and the `& 15`
        // indexing needs no bounds checks.
        let mut w = [0u32; 16];
        for (wi, chunk) in w.iter_mut().zip(block.chunks_exact(4)) {
            *wi = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }

        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = st;
        // Eight rounds per iteration with rotated variable roles: the
        // compiler keeps the working variables in registers instead of
        // shuffling h←g←f←… every round.
        macro_rules! round {
            ($a:ident, $b:ident, $c:ident, $d:ident,
                 $e:ident, $f:ident, $g:ident, $h:ident, $t:expr, $wt:expr) => {
                let big_s1 = $e.rotate_right(6) ^ $e.rotate_right(11) ^ $e.rotate_right(25);
                let ch = ($e & $f) ^ (!$e & $g);
                let t1 =
                    $h.wrapping_add(big_s1).wrapping_add(ch).wrapping_add(K[$t]).wrapping_add($wt);
                let big_s0 = $a.rotate_right(2) ^ $a.rotate_right(13) ^ $a.rotate_right(22);
                let maj = ($a & $b) ^ ($a & $c) ^ ($b & $c);
                $d = $d.wrapping_add(t1);
                $h = t1.wrapping_add(big_s0.wrapping_add(maj));
            };
        }
        /// Expands the schedule word for round `t` (t ≥ 16) in place.
        macro_rules! expand {
            ($w:ident, $t:expr) => {{
                let w15 = $w[($t + 1) & 15];
                let w2 = $w[($t + 14) & 15];
                let s0 = w15.rotate_right(7) ^ w15.rotate_right(18) ^ (w15 >> 3);
                let s1 = w2.rotate_right(17) ^ w2.rotate_right(19) ^ (w2 >> 10);
                $w[$t & 15] =
                    $w[$t & 15].wrapping_add(s0).wrapping_add($w[($t + 9) & 15]).wrapping_add(s1);
                $w[$t & 15]
            }};
        }
        for t0 in (0..16).step_by(8) {
            round!(a, b, c, d, e, f, g, h, t0, w[t0 & 15]);
            round!(h, a, b, c, d, e, f, g, t0 + 1, w[(t0 + 1) & 15]);
            round!(g, h, a, b, c, d, e, f, t0 + 2, w[(t0 + 2) & 15]);
            round!(f, g, h, a, b, c, d, e, t0 + 3, w[(t0 + 3) & 15]);
            round!(e, f, g, h, a, b, c, d, t0 + 4, w[(t0 + 4) & 15]);
            round!(d, e, f, g, h, a, b, c, t0 + 5, w[(t0 + 5) & 15]);
            round!(c, d, e, f, g, h, a, b, t0 + 6, w[(t0 + 6) & 15]);
            round!(b, c, d, e, f, g, h, a, t0 + 7, w[(t0 + 7) & 15]);
        }
        for t0 in (16..64).step_by(8) {
            round!(a, b, c, d, e, f, g, h, t0, expand!(w, t0));
            round!(h, a, b, c, d, e, f, g, t0 + 1, expand!(w, t0 + 1));
            round!(g, h, a, b, c, d, e, f, t0 + 2, expand!(w, t0 + 2));
            round!(f, g, h, a, b, c, d, e, t0 + 3, expand!(w, t0 + 3));
            round!(e, f, g, h, a, b, c, d, t0 + 4, expand!(w, t0 + 4));
            round!(d, e, f, g, h, a, b, c, t0 + 5, expand!(w, t0 + 5));
            round!(c, d, e, f, g, h, a, b, t0 + 6, expand!(w, t0 + 6));
            round!(b, c, d, e, f, g, h, a, t0 + 7, expand!(w, t0 + 7));
        }

        st[0] = st[0].wrapping_add(a);
        st[1] = st[1].wrapping_add(b);
        st[2] = st[2].wrapping_add(c);
        st[3] = st[3].wrapping_add(d);
        st[4] = st[4].wrapping_add(e);
        st[5] = st[5].wrapping_add(f);
        st[6] = st[6].wrapping_add(g);
        st[7] = st[7].wrapping_add(h);
    }
    *state = st;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(d: &[u8]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    // NIST FIPS 180-4 / CAVP short-message vectors.
    #[test]
    fn empty_message() {
        assert_eq!(
            hex(&Sha256::digest(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn abc() {
        assert_eq!(
            hex(&Sha256::digest(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn two_block_message() {
        assert_eq!(
            hex(&Sha256::digest(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn four_block_message() {
        let msg = b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
                    ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu";
        assert_eq!(
            hex(&Sha256::digest(msg)),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"
        );
    }

    #[test]
    fn million_a() {
        let msg = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(&Sha256::digest(&msg)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn single_byte_cavp() {
        // CAVP SHA256ShortMsg.rsp, Len = 8, Msg = d3.
        assert_eq!(
            hex(&Sha256::digest(&[0xd3])),
            "28969cdfa74a12c82f3bad960b0b000aca2ac329deea5c2328ebc6f2ba9802c1"
        );
    }

    #[test]
    fn length_55_56_57_padding_edges() {
        // These lengths straddle the padding boundary (56 bytes leaves no room
        // for the length field in the same block).
        for (len, want) in [
            (55usize, "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318"),
            (56, "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a"),
            (57, "f13b2d724659eb3bf47f2dd6af1accc87b81f09f59f2b75e5c0bed6589dfe8c6"),
        ] {
            let msg = vec![b'a'; len];
            assert_eq!(hex(&Sha256::digest(&msg)), want, "len={len}");
        }
    }

    #[test]
    fn incremental_matches_oneshot_for_every_split() {
        let msg: Vec<u8> = (0u16..300).map(|i| (i % 251) as u8).collect();
        let want = Sha256::digest(&msg);
        for split in 0..msg.len() {
            let mut h = Sha256::new();
            h.update(&msg[..split]);
            h.update(&msg[split..]);
            assert_eq!(h.finalize(), want, "split={split}");
        }
    }

    #[test]
    fn clone_forks_the_state() {
        let mut h = Sha256::new();
        h.update(b"shared prefix|");
        let mut h2 = h.clone();
        h.update(b"left");
        h2.update(b"right");
        assert_eq!(h.finalize(), Sha256::digest(b"shared prefix|left"));
        assert_eq!(h2.finalize(), Sha256::digest(b"shared prefix|right"));
    }
}
