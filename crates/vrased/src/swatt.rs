//! The SW-Att attestation service:
//! `HMAC(K, challenge ‖ (bounds ‖ SHA-256(region))* ‖ extra)`.
//!
//! Each attested region enters the MAC as its inclusive `(start, end)`
//! bounds followed by the SHA-256 digest of its contents (rather than the
//! raw contents). By SHA-256 collision resistance this binds the region
//! bytes exactly as strongly, and it buys the verifier two things:
//!
//! * the expected-region digest is a pure function of the op image, so a
//!   verifier computes it once, when it is built, instead of rehashing
//!   kilobytes of ER per proof;
//! * the keyed part is small: a PoX MAC message is 115 bytes (two
//!   compressions after the key's midstate, one for the outer hash)
//!   however large the regions are, and the region digests themselves
//!   hash public bytes, so a verifier may skip the leading zero blocks of
//!   an output region ([`hacl::Sha256::digest_public`]).

use crate::keystore::KeyStore;
use crate::protocol::Challenge;
use hacl::{Digest, HmacKey, Sha256};
use msp430::platform::Platform;

/// The device-side attestation routine.
///
/// Mirrors VRASED's SW-Att: reads prover memory without side effects and
/// MACs it under the protected key together with the verifier's challenge.
/// Executed atomically (the simulated CPU is not running while it executes,
/// exactly as VRASED's hardware guarantees non-interruptible execution).
///
/// The HMAC pads are derived from the key once at construction
/// ([`HmacKey`]); each attestation starts from a flat copy of the keyed
/// state, so high-rate verifiers (batch workers checking thousands of
/// proofs under one device key) skip the per-MAC key schedule. `Debug`
/// prints the key context as `<protected>`, never its midstates.
#[derive(Clone, Debug)]
pub struct SwAtt {
    key: HmacKey,
}

impl SwAtt {
    /// Binds the service to the device key.
    #[must_use]
    pub fn new(keystore: KeyStore) -> Self {
        Self { key: HmacKey::new(keystore.key_material()) }
    }

    /// Attests `regions` (inclusive `(start, end)` address pairs) of the
    /// platform's memory.
    #[must_use]
    pub fn attest(
        &self,
        platform: &Platform,
        challenge: &Challenge,
        regions: &[(u16, u16)],
    ) -> Digest {
        self.attest_with_extra(platform, challenge, regions, &[])
    }

    /// Attests memory regions plus caller-supplied `extra` bytes.
    ///
    /// APEX uses `extra` to bind the PoX metadata (region bounds and the
    /// EXEC flag) into the same MAC.
    #[must_use]
    pub fn attest_with_extra(
        &self,
        platform: &Platform,
        challenge: &Challenge,
        regions: &[(u16, u16)],
        extra: &[u8],
    ) -> Digest {
        let mut mac = self.key.begin();
        mac.update(challenge.as_bytes());
        for (start, end) in regions {
            mac.update(&start.to_le_bytes());
            mac.update(&end.to_le_bytes());
            mac.update(&Sha256::digest(platform.mem_range(*start, *end)));
        }
        mac.update(extra);
        mac.finalize()
    }

    /// Attests regions given directly as `(start, end, bytes)` slices.
    ///
    /// Produces exactly the tag [`SwAtt::attest_with_extra`] would for a
    /// platform holding `bytes` at `start..=end` — but without building a
    /// 64 KiB memory image first. Verifiers checking many proofs use this
    /// to reconstruct expected tags allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if a slice length does not match its `start..=end` span.
    #[must_use]
    pub fn attest_region_bytes(
        &self,
        challenge: &Challenge,
        regions: &[(u16, u16, &[u8])],
        extra: &[u8],
    ) -> Digest {
        let mut mac = self.key.begin();
        mac.update(challenge.as_bytes());
        for (start, end, bytes) in regions {
            assert_eq!(
                bytes.len(),
                usize::from(*end - *start) + 1,
                "region bytes must span start..=end"
            );
            mac.update(&start.to_le_bytes());
            mac.update(&end.to_le_bytes());
            mac.update(&Sha256::digest(bytes));
        }
        mac.update(extra);
        mac.finalize()
    }

    /// Attests regions given as `(start, end, content digest)` — the
    /// memoized form of [`SwAtt::attest_region_bytes`]: callers that
    /// already hold `SHA-256(bytes)` (e.g. a fleet verifier caching the
    /// expected-ER digest per op image) skip rehashing the region.
    #[must_use]
    pub fn attest_region_digests(
        &self,
        challenge: &Challenge,
        regions: &[(u16, u16, &Digest)],
        extra: &[u8],
    ) -> Digest {
        let mut mac = self.key.begin();
        mac.update(challenge.as_bytes());
        for (start, end, digest) in regions {
            mac.update(&start.to_le_bytes());
            mac.update(&end.to_le_bytes());
            mac.update(&digest[..]);
        }
        mac.update(extra);
        mac.finalize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (SwAtt, Platform, Challenge) {
        let mut p = Platform::new();
        p.load_words(0xE000, &[0x1234, 0x5678]);
        (SwAtt::new(KeyStore::from_seed(3)), p, Challenge::derive(b"t", 0))
    }

    #[test]
    fn deterministic_for_same_state() {
        let (att, p, c) = setup();
        assert_eq!(
            att.attest(&p, &c, &[(0xE000, 0xE003)]),
            att.attest(&p, &c, &[(0xE000, 0xE003)])
        );
    }

    #[test]
    fn sensitive_to_memory_challenge_region_and_key() {
        let (att, p, c) = setup();
        let base = att.attest(&p, &c, &[(0xE000, 0xE003)]);

        let mut p2 = p.clone();
        p2.load_words(0xE002, &[0x5679]);
        assert_ne!(att.attest(&p2, &c, &[(0xE000, 0xE003)]), base, "memory");

        let c2 = Challenge::derive(b"t", 1);
        assert_ne!(att.attest(&p, &c2, &[(0xE000, 0xE003)]), base, "challenge");

        assert_ne!(att.attest(&p, &c, &[(0xE000, 0xE001)]), base, "region");

        let att2 = SwAtt::new(KeyStore::from_seed(4));
        assert_ne!(att2.attest(&p, &c, &[(0xE000, 0xE003)]), base, "key");
    }

    #[test]
    fn region_bounds_are_bound_into_mac() {
        // Same bytes at two different regions must not collide: the region
        // addresses are MACed, preventing relocation attacks.
        let att = SwAtt::new(KeyStore::from_seed(9));
        let c = Challenge::derive(b"t", 0);
        let mut p = Platform::new();
        p.load_words(0xE000, &[0xAAAA]);
        p.load_words(0xF000, &[0xAAAA]);
        assert_ne!(
            att.attest(&p, &c, &[(0xE000, 0xE001)]),
            att.attest(&p, &c, &[(0xF000, 0xF001)])
        );
    }

    #[test]
    fn digest_form_matches_bytes_and_platform_forms() {
        // The three attestation entry points must agree on the tag: the
        // digest form is the memoized fast path for the same MAC message.
        let (att, p, c) = setup();
        let bytes = p.mem_range(0xE000, 0xE003);
        let digest = Sha256::digest(bytes);
        let want = att.attest_with_extra(&p, &c, &[(0xE000, 0xE003)], &[7]);
        assert_eq!(att.attest_region_bytes(&c, &[(0xE000, 0xE003, bytes)], &[7]), want);
        assert_eq!(att.attest_region_digests(&c, &[(0xE000, 0xE003, &digest)], &[7]), want);
    }

    #[test]
    fn extra_bytes_are_bound() {
        let (att, p, c) = setup();
        assert_ne!(
            att.attest_with_extra(&p, &c, &[(0xE000, 0xE001)], &[1]),
            att.attest_with_extra(&p, &c, &[(0xE000, 0xE001)], &[0]),
        );
    }
}
