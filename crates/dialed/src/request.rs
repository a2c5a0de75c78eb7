//! The unified request-based verification API.
//!
//! Every way of verifying a proof — single key or per-device keys, full
//! DIALED data-flow verification or PoX-only, one proof at a time or a
//! fleet shard's whole queue — goes through one entry point: build a
//! [`VerifyRequest`] and hand it to a [`Verifier`].
//!
//! * [`VerifyRequest`] carries the proof, the challenge it must answer,
//!   the device identity, and optionally the key source to check it
//!   under. It borrows everything, so building one costs nothing on the
//!   fleet-scale hot path.
//! * [`KeySource`] answers "which key does this device verify under?".
//!   [`StaticKeys`] is the embedded single-key default; [`PerDevice`]
//!   adapts any lookup (e.g. `fleet::Registry`) without materialising a
//!   key store per job.
//! * [`Verifier`] is the backend: [`DialedVerifier`](crate::DialedVerifier)
//!   performs full data-flow verification, [`apex::PoxVerifier`] checks
//!   only the cryptographic proof of execution. A fleet stores one boxed
//!   backend per operation, so it drains both kinds of operation through
//!   the same [`Verifier::verify_in`] call, reusing one [`EmuWorkspace`]
//!   per operation across proofs.
//!
//! # Example
//!
//! ```
//! use dialed::prelude::*;
//!
//! let source = ".org 0xE000\nop:\n mov r15, &0x0060\n ret\n";
//! let op = InstrumentedOp::build(source, "op", &BuildOptions::default())?;
//! let key = KeyStore::from_seed(9);
//! let mut device = DialedDevice::new(op.clone(), key.clone());
//! device.invoke(&[0; 8]);
//! let challenge = Challenge::derive(b"request-doc", 0);
//! let proof = device.prove(&challenge);
//!
//! let verifier = DialedVerifier::new(op, key.clone());
//! // Default: the verifier's embedded key.
//! let report = verifier.verify(&VerifyRequest::new(&proof, &challenge));
//! assert!(report.is_clean(), "{report}");
//! // Explicit key source: identical verdict for the same key.
//! let keys = StaticKeys::new(key);
//! let req = VerifyRequest::new(&proof, &challenge).for_device(7).keys(&keys);
//! assert_eq!(verifier.verify(&req), report);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::attest::DialedProof;
use crate::report::{RejectReason, Report, VerifyStats};
use crate::verifier::EmuWorkspace;
use apex::PoxVerifier;
use std::marker::PhantomData;
use vrased::{Challenge, KeyStore, RaVerifier};

/// Where per-device verification keys come from.
///
/// A key source resolves a device identity to the RA verifier (key
/// schedule) its proofs must be checked under. Implementations return
/// borrowed [`RaVerifier`]s so the per-proof path performs no key-store
/// cloning and no HMAC-pad recomputation.
///
/// `Sync` is a supertrait so concurrent callers can share one source
/// across threads.
pub trait KeySource: Sync {
    /// The RA verifier for `device`, or `None` if this source does not
    /// know the device (the request is then rejected with
    /// [`RejectReason::UnknownKey`]).
    fn key_for(&self, device: u64) -> Option<&RaVerifier>;
}

/// The embedded single-key default: every device verifies under the same
/// key — the right source for single-tenant deployments and tests.
#[derive(Clone, Debug)]
pub struct StaticKeys {
    ra: RaVerifier,
}

impl StaticKeys {
    /// A source answering every lookup with `keystore`'s key.
    #[must_use]
    pub fn new(keystore: KeyStore) -> Self {
        Self { ra: RaVerifier::new(keystore) }
    }
}

impl KeySource for StaticKeys {
    fn key_for(&self, _device: u64) -> Option<&RaVerifier> {
        Some(&self.ra)
    }
}

/// Per-device keys resolved through a borrowed lookup.
///
/// Adapts any `Fn(u64) -> Option<&RaVerifier>` — typically a closure over
/// a registry — into a [`KeySource`], so a fleet's device table plugs into
/// verification without materialising a key store per proof:
///
/// ```
/// use dialed::request::{KeySource, PerDevice};
/// use vrased::{KeyStore, RaVerifier};
///
/// let table: Vec<RaVerifier> =
///     (0..3).map(|i| RaVerifier::new(KeyStore::from_seed(i))).collect();
/// let keys = PerDevice::new(|device| table.get(device as usize));
/// assert!(keys.key_for(2).is_some());
/// assert!(keys.key_for(9).is_none());
/// ```
pub struct PerDevice<'k, F> {
    lookup: F,
    _keys: PhantomData<&'k RaVerifier>,
}

impl<'k, F: Fn(u64) -> Option<&'k RaVerifier>> PerDevice<'k, F> {
    /// Wraps `lookup` as a key source.
    #[must_use]
    pub fn new(lookup: F) -> Self {
        Self { lookup, _keys: PhantomData }
    }
}

impl<'k, F: Fn(u64) -> Option<&'k RaVerifier> + Sync> KeySource for PerDevice<'k, F> {
    fn key_for(&self, device: u64) -> Option<&RaVerifier> {
        (self.lookup)(device)
    }
}

/// One verification request: a proof, the challenge it must answer, the
/// claimed device identity, and optionally the key source to check it
/// under.
///
/// Built with a borrowing builder — a request is a handful of references
/// on the stack, so constructing one per proof adds nothing to the drain
/// hot path. Defaults: device `0` and the verifier's embedded key.
#[derive(Clone, Copy)]
pub struct VerifyRequest<'a> {
    proof: &'a DialedProof,
    challenge: &'a Challenge,
    device: u64,
    keys: Option<&'a dyn KeySource>,
}

impl<'a> VerifyRequest<'a> {
    /// A request to verify `proof` against `challenge`.
    #[must_use]
    pub fn new(proof: &'a DialedProof, challenge: &'a Challenge) -> Self {
        Self { proof, challenge, device: 0, keys: None }
    }

    /// Sets the device identity this proof claims (resolved through the
    /// request's [`KeySource`], echoed into fleet bookkeeping).
    #[must_use]
    pub fn for_device(mut self, device: u64) -> Self {
        self.device = device;
        self
    }

    /// Resolves this request's key through `source` instead of the
    /// verifier's embedded key.
    #[must_use]
    pub fn keys(mut self, source: &'a dyn KeySource) -> Self {
        self.keys = Some(source);
        self
    }

    /// The proof under verification.
    #[must_use]
    pub fn proof(&self) -> &'a DialedProof {
        self.proof
    }

    /// The challenge the proof must answer.
    #[must_use]
    pub fn challenge(&self) -> &'a Challenge {
        self.challenge
    }

    /// The claimed device identity.
    #[must_use]
    pub fn device(&self) -> u64 {
        self.device
    }

    /// Resolves the RA verifier this request must be checked under:
    /// `Ok(None)` means "use the verifier's embedded key" (no source set),
    /// `Ok(Some(ra))` is the source's answer for this device.
    ///
    /// # Errors
    ///
    /// [`RejectReason::UnknownKey`] when a source is set but does not know
    /// the device.
    pub fn resolve_key(&self) -> Result<Option<&'a RaVerifier>, RejectReason> {
        match self.keys {
            None => Ok(None),
            Some(source) => match source.key_for(self.device) {
                Some(ra) => Ok(Some(ra)),
                None => Err(RejectReason::UnknownKey { device: self.device }),
            },
        }
    }
}

impl std::fmt::Debug for VerifyRequest<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VerifyRequest")
            .field("device", &self.device)
            .field("keyed", &self.keys.is_some())
            .finish_non_exhaustive()
    }
}

/// A verification backend: turns a [`VerifyRequest`] into a [`Report`].
///
/// Implemented by [`DialedVerifier`](crate::DialedVerifier) (full
/// data-flow verification: PoX check + abstract execution + policies) and
/// [`apex::PoxVerifier`] (cryptographic proof of execution only).
///
/// `Sync` is a supertrait so threads verifying at once can share one
/// verifier by reference; the trait is object-safe, so heterogeneous
/// deployments can store `Box<dyn Verifier>` backends side by side.
pub trait Verifier: Sync {
    /// Verifies `req`, reusing `ws`'s emulation buffers.
    ///
    /// Verdicts must not depend on the workspace's history: a warm
    /// workspace and a fresh one yield identical reports. Backends that
    /// do not emulate (e.g. PoX-only) ignore `ws`.
    #[must_use]
    fn verify_in(&self, ws: &mut EmuWorkspace, req: &VerifyRequest<'_>) -> Report;

    /// [`Verifier::verify_in`] with a throwaway workspace — the one-shot
    /// convenience form.
    #[must_use]
    fn verify(&self, req: &VerifyRequest<'_>) -> Report {
        self.verify_in(&mut EmuWorkspace::new(), req)
    }
}

/// PoX-only verification: the cryptographic proof of execution (correct
/// code, correct regions, EXEC set, authentic OR) without data-flow
/// re-execution — the backend for operations built without the full
/// DIALED instrumentation.
impl Verifier for PoxVerifier {
    fn verify_in(&self, _ws: &mut EmuWorkspace, req: &VerifyRequest<'_>) -> Report {
        let ra = match req.resolve_key() {
            Ok(ra) => ra,
            Err(reason) => return Report::rejected(reason),
        };
        match self.check(&req.proof().pox, req.challenge(), ra) {
            Ok(_) => Report::clean(VerifyStats::default()),
            Err(reason) => Report::rejected(reason),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attest::DialedDevice;
    use crate::pipeline::{BuildOptions, InstrumentedOp};
    use crate::report::{Finding, Verdict};
    use crate::DialedVerifier;
    use vrased::KeyStore;

    const OP: &str = ".org 0xE000\nop:\n mov r15, &0x0060\n ret\n";

    fn proven(seed: u64) -> (InstrumentedOp, DialedProof, Challenge, KeyStore) {
        let op = InstrumentedOp::build(OP, "op", &BuildOptions::default()).unwrap();
        let ks = KeyStore::from_seed(seed);
        let mut dev = DialedDevice::new(op.clone(), ks.clone());
        dev.invoke(&[0; 8]);
        let chal = Challenge::derive(b"request", seed);
        (op, dev.prove(&chal), chal, ks)
    }

    #[test]
    fn default_and_static_keys_agree() {
        let (op, proof, chal, ks) = proven(31);
        let verifier = DialedVerifier::new(op, ks.clone());
        let embedded = verifier.verify(&VerifyRequest::new(&proof, &chal));
        let keys = StaticKeys::new(ks);
        let explicit =
            verifier.verify(&VerifyRequest::new(&proof, &chal).for_device(99).keys(&keys));
        assert!(embedded.is_clean(), "{embedded}");
        assert_eq!(embedded, explicit);
    }

    #[test]
    fn unknown_device_is_a_structured_rejection() {
        let (op, proof, chal, ks) = proven(32);
        let verifier = DialedVerifier::new(op, ks);
        let keys = PerDevice::new(|_| None);
        let report = verifier.verify(&VerifyRequest::new(&proof, &chal).for_device(5).keys(&keys));
        assert_eq!(report.verdict, Verdict::Rejected);
        assert_eq!(
            report.findings,
            vec![Finding::PoxRejected { reason: RejectReason::UnknownKey { device: 5 } }]
        );
    }

    #[test]
    fn pox_verifier_is_a_request_backend() {
        let (op, proof, chal, ks) = proven(33);
        let pox = PoxVerifier::new(ks, op.pox, &op.er_bytes);
        let report = pox.verify(&VerifyRequest::new(&proof, &chal));
        assert!(report.is_clean(), "{report}");

        let mut forged = proof.clone();
        forged.pox.or_data[0] ^= 1;
        let report = pox.verify(&VerifyRequest::new(&forged, &chal));
        assert_eq!(
            report.findings,
            vec![Finding::PoxRejected { reason: RejectReason::MacMismatch }]
        );
    }
}
