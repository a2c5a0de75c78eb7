//! The Vrf ↔ Prv static-attestation protocol.

use crate::keystore::KeyStore;
use crate::swatt::SwAtt;
use hacl::{constant_time, Digest, Sha256};
use msp430::platform::Platform;

/// A 256-bit attestation challenge (nonce).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Challenge([u8; 32]);

impl Challenge {
    /// Wraps explicit nonce bytes.
    #[must_use]
    pub fn from_bytes(bytes: [u8; 32]) -> Self {
        Self(bytes)
    }

    /// Derives a fresh challenge from a session label and counter — the
    /// deterministic stand-in for the verifier's RNG, so experiments are
    /// reproducible.
    #[must_use]
    pub fn derive(label: &[u8], counter: u64) -> Self {
        let mut h = Sha256::new();
        h.update(b"dialed-repro challenge");
        h.update(label);
        h.update(&counter.to_le_bytes());
        Self(h.finalize())
    }

    /// Raw bytes.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }
}

/// The verifier side of static RA: holds the shared key and the expected
/// memory contents.
#[derive(Clone, Debug)]
pub struct RaVerifier {
    swatt: SwAtt,
}

impl RaVerifier {
    /// A verifier sharing `keystore` with the device.
    #[must_use]
    pub fn new(keystore: KeyStore) -> Self {
        Self { swatt: SwAtt::new(keystore) }
    }

    /// Checks a device response against the expected memory image
    /// (constant-time tag comparison).
    #[must_use]
    pub fn check(
        &self,
        expected: &Platform,
        challenge: &Challenge,
        regions: &[(u16, u16)],
        response: &Digest,
    ) -> bool {
        let want = self.swatt.attest(expected, challenge, regions);
        constant_time::eq(&want, response)
    }

    /// Checks a response against expected region contents given directly
    /// as `(start, end, bytes)` slices — no 64 KiB expected-memory image is
    /// materialised, keeping the per-proof verifier path allocation-light.
    ///
    /// # Panics
    ///
    /// Panics if a slice length does not match its `start..=end` span.
    #[must_use]
    pub fn check_region_bytes(
        &self,
        challenge: &Challenge,
        regions: &[(u16, u16, &[u8])],
        extra: &[u8],
        response: &Digest,
    ) -> bool {
        let want = self.swatt.attest_region_bytes(challenge, regions, extra);
        constant_time::eq(&want, response)
    }

    /// Checks a response against `(start, end, content digest)` regions —
    /// the digest counterpart of [`RaVerifier::check_region_bytes`], for
    /// callers holding precomputed region digests.
    #[must_use]
    pub fn check_region_digests(
        &self,
        challenge: &Challenge,
        regions: &[(u16, u16, &Digest)],
        extra: &[u8],
        response: &Digest,
    ) -> bool {
        let want = self.swatt.attest_region_digests(challenge, regions, extra);
        constant_time::eq(&want, response)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn honest_device_passes_modified_fails() {
        let ks = KeyStore::from_seed(11);
        let device = SwAtt::new(ks.clone());
        let vrf = RaVerifier::new(ks);

        let mut firmware = Platform::new();
        firmware.load_words(0xE000, &[0x4303, 0x4130]);
        let mut device_mem = firmware.clone();

        let c = Challenge::derive(b"round", 0);
        let resp = device.attest(&device_mem, &c, &[(0xE000, 0xE003)]);
        assert!(vrf.check(&firmware, &c, &[(0xE000, 0xE003)], &resp));

        // Malware flips one instruction.
        device_mem.load_words(0xE000, &[0x4304]);
        let resp = device.attest(&device_mem, &c, &[(0xE000, 0xE003)]);
        assert!(!vrf.check(&firmware, &c, &[(0xE000, 0xE003)], &resp));
    }

    #[test]
    fn replayed_response_fails_fresh_challenge() {
        let ks = KeyStore::from_seed(12);
        let device = SwAtt::new(ks.clone());
        let vrf = RaVerifier::new(ks);
        let p = Platform::new();

        let c0 = Challenge::derive(b"round", 0);
        let old = device.attest(&p, &c0, &[(0xE000, 0xE003)]);
        let c1 = Challenge::derive(b"round", 1);
        assert!(!vrf.check(&p, &c1, &[(0xE000, 0xE003)], &old));
    }

    #[test]
    fn wrong_key_cannot_forge() {
        let device = SwAtt::new(KeyStore::from_seed(13));
        let vrf = RaVerifier::new(KeyStore::from_seed(14));
        let p = Platform::new();
        let c = Challenge::derive(b"round", 0);
        let resp = device.attest(&p, &c, &[(0, 3)]);
        assert!(!vrf.check(&p, &c, &[(0, 3)], &resp));
    }

    #[test]
    fn lane_tag_checks_match_scalar_checks() {
        // 9 devices, each its own key and challenge; device 4 carries a
        // forged tag. Each verdict of `check_region_digests` (on the
        // process's kernel) must match a tag recomputed by hand on every
        // kernel this CPU runs, the scalar reference included.
        let data = [0x11u8; 16];
        let digest = Sha256::digest(&data);
        let extra = [0xE5u8; 11];
        let keys: Vec<KeyStore> = (0..9).map(|i| KeyStore::from_seed(20 + i)).collect();
        let ras: Vec<RaVerifier> = keys.iter().cloned().map(RaVerifier::new).collect();
        let devices: Vec<SwAtt> = keys.iter().cloned().map(SwAtt::new).collect();
        let challenges: Vec<Challenge> = (0..9).map(|i| Challenge::derive(b"lane", i)).collect();
        let regions = [(0xE000u16, 0xE00Fu16, &digest)];
        let mut tags: Vec<Digest> = devices
            .iter()
            .zip(&challenges)
            .map(|(dev, c)| dev.attest_region_digests(c, &regions, &extra))
            .collect();
        tags[4][0] ^= 1;
        let kernels = hacl::Kernel::ALL.into_iter().filter(|k| k.is_supported());
        for kernel in kernels {
            for i in 0..9 {
                let mut msg = challenges[i].as_bytes().to_vec();
                msg.extend_from_slice(&0xE000u16.to_le_bytes());
                msg.extend_from_slice(&0xE00Fu16.to_le_bytes());
                msg.extend_from_slice(&digest);
                msg.extend_from_slice(&extra);
                let key = hacl::HmacKey::with_kernel(keys[i].key_material(), kernel);
                let reference = key.verify(&msg, &tags[i]);
                let ok = ras[i].check_region_digests(&challenges[i], &regions, &extra, &tags[i]);
                assert_eq!(ok, reference, "device {i}, {} kernel", kernel.label());
                assert_eq!(ok, i != 4, "device {i}");
            }
        }
    }

    #[test]
    fn debug_never_leaks_hmac_midstates() {
        // The verifier holds the key as its two HMAC midstates, each as
        // good as the key. Recompute them from the known key and look for
        // any of their words in the verifier's `Debug` output.
        let ra = RaVerifier::new(KeyStore::new([0xAB; 32]));
        let printed = format!("{ra:?}");
        for pad in [0x36u8, 0x5c] {
            let mut midstate = Sha256::new();
            midstate.update(&[0xAB ^ pad; 32]);
            midstate.update(&[pad; 32]);
            // `Sha256`'s own `Debug` lists its state words.
            let dump = format!("{midstate:?}");
            let words = dump.split("state: [").nth(1).and_then(|s| s.split(']').next());
            let words: Vec<u32> = words
                .expect("Sha256 Debug lists its state")
                .split(", ")
                .map(|w| w.parse().unwrap())
                .collect();
            assert_eq!(words.len(), 8);
            for w in words {
                assert!(!printed.contains(&w.to_string()), "midstate word {w} in {printed}");
                assert!(!printed.contains(&format!("{w:x}")), "midstate word {w:#x} in {printed}");
            }
        }
        assert!(printed.contains("protected"), "{printed}");
    }

    #[test]
    fn challenge_derivation_distinct() {
        assert_ne!(Challenge::derive(b"a", 0), Challenge::derive(b"a", 1));
        assert_ne!(Challenge::derive(b"a", 0), Challenge::derive(b"b", 0));
        assert_eq!(Challenge::derive(b"a", 0), Challenge::derive(b"a", 0));
    }
}
