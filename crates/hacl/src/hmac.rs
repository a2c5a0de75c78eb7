//! RFC 2104 HMAC-SHA-256.
//!
//! This is the MAC computed by VRASED's `SW-Att` over attested memory, and by
//! extension the authenticator underlying APEX proofs of execution and the
//! DIALED attestation reports.

use crate::sha256::{Kernel, Sha256};
use crate::Digest;
use std::fmt;

const BLOCK_LEN: usize = 64;
const IPAD: u8 = 0x36;
const OPAD: u8 = 0x5c;

/// A precomputed HMAC-SHA-256 key context.
///
/// Deriving the RFC 2104 pads costs two SHA-256 compressions (plus a key
/// hash for long keys); a long-lived verifier MACing under one device key
/// pays that once here and then [`HmacKey::begin`]s each message with a
/// flat state copy. This is what keeps batch-verification workers from
/// re-deriving pads on every proof. It holds only the two 32-byte chaining
/// values (a fleet keeps one per registered device).
///
/// The two midstates are as good as the key: anyone holding both can MAC
/// any message. `Debug` therefore prints neither.
///
/// # Examples
///
/// ```
/// use hacl::{HmacKey, HmacSha256};
///
/// let key = HmacKey::new(b"device-key");
/// assert_eq!(key.mac(b"m"), HmacSha256::mac(b"device-key", b"m"));
/// assert_eq!(format!("{key:?}"), "HmacKey { <protected> }");
/// ```
#[derive(Clone)]
pub struct HmacKey {
    /// Chaining value after the `key ⊕ ipad` block.
    inner: [u32; 8],
    /// Chaining value after the `key ⊕ opad` block.
    outer: [u32; 8],
    kernel: Kernel,
}

impl HmacKey {
    /// Precomputes the keyed pads for `key`.
    ///
    /// Keys longer than the 64-byte SHA-256 block are first hashed, per
    /// RFC 2104.
    #[must_use]
    pub fn new(key: &[u8]) -> Self {
        Self::with_kernel(key, Kernel::detected())
    }

    /// [`HmacKey::new`] on an explicit compression kernel: every MAC begun
    /// from this key compresses with `kernel`.
    ///
    /// # Panics
    ///
    /// If this CPU cannot run `kernel` (see [`Kernel::is_supported`]).
    #[must_use]
    pub fn with_kernel(key: &[u8], kernel: Kernel) -> Self {
        let mut k = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            let mut h = Sha256::with_kernel(kernel);
            h.update(key);
            k[..32].copy_from_slice(&h.finalize());
        } else {
            k[..key.len()].copy_from_slice(key);
        }
        let mut ipad = [0u8; BLOCK_LEN];
        let mut opad = [0u8; BLOCK_LEN];
        for i in 0..BLOCK_LEN {
            ipad[i] = k[i] ^ IPAD;
            opad[i] = k[i] ^ OPAD;
        }
        let midstate = |pad: &[u8; BLOCK_LEN]| {
            let mut h = Sha256::with_kernel(kernel);
            h.update(pad);
            h.block_state()
        };
        Self { inner: midstate(&ipad), outer: midstate(&opad), kernel }
    }

    /// Starts a MAC computation under this key (a flat state copy — no
    /// hashing happens until data arrives).
    #[must_use]
    pub fn begin(&self) -> HmacSha256 {
        HmacSha256 {
            inner: Sha256::resume(self.inner, 1, self.kernel),
            outer: Sha256::resume(self.outer, 1, self.kernel),
        }
    }

    /// One-shot MAC of `msg` under this key.
    #[must_use]
    pub fn mac(&self, msg: &[u8]) -> Digest {
        let mut h = self.begin();
        h.update(msg);
        h.finalize()
    }

    /// Verifies `tag` over `msg` in constant time.
    #[must_use]
    pub fn verify(&self, msg: &[u8], tag: &Digest) -> bool {
        let mut h = self.begin();
        h.update(msg);
        h.verify(tag)
    }
}

impl fmt::Debug for HmacKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print the keyed midstates.
        f.write_str("HmacKey { <protected> }")
    }
}

/// Incremental HMAC-SHA-256.
///
/// # Examples
///
/// ```
/// use hacl::HmacSha256;
///
/// let mut mac = HmacSha256::new(b"key");
/// mac.update(b"mes");
/// mac.update(b"sage");
/// assert_eq!(mac.finalize(), HmacSha256::mac(b"key", b"message"));
/// ```
#[derive(Clone)]
pub struct HmacSha256 {
    inner: Sha256,
    /// Outer hasher pre-loaded with `key ⊕ opad`, finished at finalize time.
    outer: Sha256,
}

impl HmacSha256 {
    /// Creates a MAC instance keyed with `key`.
    ///
    /// Callers MACing many messages under one key should hold an
    /// [`HmacKey`] and [`HmacKey::begin`] instead, skipping the per-message
    /// pad derivation.
    #[must_use]
    pub fn new(key: &[u8]) -> Self {
        HmacKey::new(key).begin()
    }

    /// One-shot MAC of `msg` under `key`.
    ///
    /// # Examples
    ///
    /// ```
    /// let tag = hacl::HmacSha256::mac(b"k", b"m");
    /// assert_ne!(tag, hacl::HmacSha256::mac(b"k", b"m2"));
    /// ```
    #[must_use]
    pub fn mac(key: &[u8], msg: &[u8]) -> Digest {
        let mut h = Self::new(key);
        h.update(msg);
        h.finalize()
    }

    /// Absorbs message bytes.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Produces the 32-byte tag, consuming the instance.
    #[must_use]
    pub fn finalize(mut self) -> Digest {
        let inner_digest = self.inner.finalize();
        self.outer.update(&inner_digest);
        self.outer.finalize()
    }

    /// Verifies `tag` against the absorbed message in constant time,
    /// consuming the instance.
    #[must_use]
    pub fn verify(self, tag: &Digest) -> bool {
        crate::constant_time::eq(&self.finalize(), tag)
    }
}

impl fmt::Debug for HmacSha256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The outer hasher is the `key ⊕ opad` midstate.
        f.write_str("HmacSha256 { <protected> }")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(d: &[u8]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    // RFC 4231 test vectors for HMAC-SHA-256.
    #[test]
    fn rfc4231_case_1() {
        let key = [0x0b; 20];
        assert_eq!(
            hex(&HmacSha256::mac(&key, b"Hi There")),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case_2() {
        assert_eq!(
            hex(&HmacSha256::mac(b"Jefe", b"what do ya want for nothing?")),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case_3() {
        let key = [0xaa; 20];
        let msg = [0xdd; 50];
        assert_eq!(
            hex(&HmacSha256::mac(&key, &msg)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_case_4() {
        let key: Vec<u8> = (1u8..=25).collect();
        let msg = [0xcd; 50];
        assert_eq!(
            hex(&HmacSha256::mac(&key, &msg)),
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"
        );
    }

    #[test]
    fn rfc4231_case_6_long_key() {
        let key = [0xaa; 131];
        assert_eq!(
            hex(&HmacSha256::mac(&key, b"Test Using Larger Than Block-Size Key - Hash Key First")),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn rfc4231_case_7_long_key_long_msg() {
        let key = [0xaa; 131];
        let msg = b"This is a test using a larger than block-size key and a larger than \
                    block-size data. The key needs to be hashed before being used by the \
                    HMAC algorithm.";
        assert_eq!(
            hex(&HmacSha256::mac(&key, msg)),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"
        );
    }

    #[test]
    fn exactly_block_sized_key_is_used_raw() {
        let key = [0x42; 64];
        // A 64-byte key must NOT be hashed; check against a manually padded
        // equivalent (65-byte key WOULD be hashed, so the two must differ).
        let long = [0x42; 65];
        assert_ne!(HmacSha256::mac(&key, b"x"), HmacSha256::mac(&long, b"x"));
    }

    #[test]
    fn verify_accepts_correct_and_rejects_bitflips() {
        let tag = HmacSha256::mac(b"key", b"payload");
        let mut h = HmacSha256::new(b"key");
        h.update(b"payload");
        assert!(h.verify(&tag));
        for bit in 0..8 {
            let mut bad = tag;
            bad[7] ^= 1 << bit;
            let mut h = HmacSha256::new(b"key");
            h.update(b"payload");
            assert!(!h.verify(&bad), "bit {bit} flip accepted");
        }
    }

    #[test]
    fn incremental_matches_oneshot_for_every_split() {
        let msg: Vec<u8> = (0u16..200).map(|i| (i * 7 % 256) as u8).collect();
        let want = HmacSha256::mac(b"split-key", &msg);
        for split in 0..msg.len() {
            let mut h = HmacSha256::new(b"split-key");
            h.update(&msg[..split]);
            h.update(&msg[split..]);
            assert_eq!(h.finalize(), want, "split={split}");
        }
    }
}
