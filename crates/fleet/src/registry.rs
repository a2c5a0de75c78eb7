//! The device registry: which devices exist, which operation each is
//! provisioned for, which key it attests under, and how far its verified
//! history reaches.
//!
//! Since the sharded-state refactor this splits in two:
//!
//! * [`OpTable`] — the fleet-global operation table. Operations are code
//!   artifacts (an instrumented image plus the [`Verifier`] built over
//!   it); they are registered once per fleet and *shared* by every
//!   shard's drain. The table is immutable during a drain, so shards
//!   draining on different threads borrow it without locking.
//! * [`Registry`] — one per shard, holding the [`DeviceRecord`]s the
//!   shard's consistent-hash slice of the device space routes to. Device
//!   state is pure data (seed, epoch, counters) and is what the shard's
//!   write-ahead log and snapshots persist; the derived key schedule is
//!   rebuilt from `seed ⊕ f(epoch)` on install, never serialized.
//!
//! Verified verdicts flow back in from the ingest stage, advancing each
//! device's last-verified counter.

use dialed::pipeline::{InstrumentMode, InstrumentedOp};
use dialed::policy::Policy;
use dialed::report::RejectReason;
use dialed::request::Verifier;
use dialed::DialedVerifier;
use std::collections::BTreeMap;
use std::fmt;
use vrased::{KeyStore, RaVerifier};

/// Identifies one registered operation within a fleet.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct OpId(pub u32);

/// Identifies one registered device within a fleet.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct DeviceId(pub u64);

impl fmt::Display for OpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "op#{}", self.0)
    }
}

impl fmt::Display for DeviceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dev#{}", self.0)
    }
}

/// Registry failures.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RegistryError {
    /// The referenced operation is not registered.
    UnknownOp(OpId),
    /// The referenced device is not registered (or was deregistered).
    UnknownDevice(DeviceId),
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::UnknownOp(id) => write!(f, "{id} is not registered"),
            RegistryError::UnknownDevice(id) => write!(f, "{id} is not registered"),
        }
    }
}

impl std::error::Error for RegistryError {}

impl From<RegistryError> for RejectReason {
    /// Registry failures reject as [`RejectReason::UnknownPrincipal`]: the
    /// service does not know the device or operation the submission names.
    fn from(e: RegistryError) -> Self {
        RejectReason::UnknownPrincipal { detail: e.to_string() }
    }
}

/// Mixes a key-rotation epoch into a provisioning seed. Epoch 0 is the
/// identity, so fleets that never rotate keep their original keys; each
/// bump moves every *subsequently provisioned* device onto a fresh key
/// schedule without touching already-installed devices.
#[must_use]
pub(crate) fn effective_seed(key_seed: u64, epoch: u64) -> u64 {
    key_seed ^ epoch.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// One registered operation: the instrumented image plus the verifier
/// every proof of this operation goes through.
pub struct OpRecord {
    /// The operation's id.
    pub id: OpId,
    /// Operator-facing name.
    pub name: String,
    /// Instrumentation stages the image was built with. Only
    /// [`InstrumentMode::Full`] images carry the I-Log the DIALED verifier
    /// re-executes; the other modes are verified at the PoX level (code,
    /// regions, EXEC, OR authenticity).
    pub mode: InstrumentMode,
    /// Devices currently bound to this operation, across all shards.
    pub devices: u64,
    /// The verifier, chosen once, at registration: full data-flow
    /// verification for [`InstrumentMode::Full`] images, PoX-only for the
    /// rest — every shard calls this one backend with no per-mode
    /// branching (per-device keys resolve through the drain's
    /// [`KeySource`](dialed::request::KeySource)).
    // `+ Send` so a whole [`Fleet`](crate::Fleet) can move into the
    // network frontend's core thread; the backends are plain data + keys.
    pub(crate) verifier: Box<dyn Verifier + Send>,
}

impl OpRecord {
    /// Estimated nanoseconds to verify one proof of this operation, the
    /// weight a drain gives each queued submission when it decides whether
    /// to go parallel (see [`Fleet::verify_pending`](crate::Fleet::verify_pending)).
    /// Measured warm on the 2-vCPU reference box (`verify_probe`): a
    /// Full-mode abstract execution with its MAC check takes 8–54 µs over
    /// the three evaluation apps, a PoX-only MAC check 0.44–0.46 µs.
    #[must_use]
    pub fn proof_cost_ns(&self) -> u64 {
        if self.mode == InstrumentMode::Full {
            25_000
        } else {
            500
        }
    }
}

impl fmt::Debug for OpRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OpRecord")
            .field("id", &self.id)
            .field("name", &self.name)
            .field("mode", &self.mode)
            .field("devices", &self.devices)
            .finish_non_exhaustive()
    }
}

/// The fleet-global operation table. Shared read-only by every shard's
/// drain; see the module docs for the split with [`Registry`].
#[derive(Debug, Default)]
pub struct OpTable {
    ops: Vec<OpRecord>,
}

impl OpTable {
    /// An empty table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers an operation; every proof of it is verified by one
    /// [`Verifier`] built over `op` and `policies`.
    pub fn register_op(
        &mut self,
        name: &str,
        op: InstrumentedOp,
        policies: Vec<Box<dyn Policy>>,
    ) -> OpId {
        let id = OpId(u32::try_from(self.ops.len()).expect("more than u32::MAX operations"));
        let mode = op.options.mode;
        // The per-op fallback key is never used for fleet jobs — every
        // drain resolves its devices' own keys — but the verifiers require
        // one at construction, so derive a per-op placeholder.
        let placeholder = KeyStore::from_seed(0xF1EE7 ^ u64::from(id.0));
        // Backend selection happens exactly once, here: Full images carry
        // the I-Log the DIALED verifier re-executes; the other modes are
        // verified at the PoX level (code, regions, EXEC, OR authenticity),
        // where reconstruction policies cannot apply.
        let backend: Box<dyn Verifier + Send> = if mode == InstrumentMode::Full {
            let mut verifier = DialedVerifier::new(op, placeholder);
            for p in policies {
                verifier = verifier.with_policy(p);
            }
            Box::new(verifier)
        } else {
            Box::new(apex::PoxVerifier::new(placeholder, op.pox, &op.er_bytes))
        };
        self.ops.push(OpRecord { id, name: name.to_string(), mode, devices: 0, verifier: backend });
        id
    }

    /// Looks up an operation.
    ///
    /// # Errors
    ///
    /// Fails if the operation is unknown.
    pub fn op(&self, id: OpId) -> Result<&OpRecord, RegistryError> {
        self.ops.get(id.0 as usize).ok_or(RegistryError::UnknownOp(id))
    }

    pub(crate) fn op_mut(&mut self, id: OpId) -> Result<&mut OpRecord, RegistryError> {
        self.ops.get_mut(id.0 as usize).ok_or(RegistryError::UnknownOp(id))
    }

    /// All registered operations.
    pub fn ops(&self) -> impl Iterator<Item = &OpRecord> {
        self.ops.iter()
    }

    /// Number of registered operations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether no operations are registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// Per-device registry state.
#[derive(Clone, Debug)]
pub struct DeviceRecord {
    /// The device's id.
    pub id: DeviceId,
    /// The operation this device is provisioned to run.
    pub op: OpId,
    /// Highest challenge nonce this device has a *verified* proof for.
    /// Monotonic: ingest only ever advances it, and recovery restores it,
    /// so a restart can never re-open an already-verified round.
    pub last_verified: Option<u64>,
    /// Sessions that ended `Verified`.
    pub verified: u64,
    /// Sessions that ended `Rejected`.
    pub rejected: u64,
    /// The provisioning seed the device's key derives from — the durable
    /// half of the key material (what the WAL and snapshots persist).
    pub(crate) key_seed: u64,
    /// The key-rotation epoch the device was provisioned under.
    pub(crate) epoch: u64,
    /// The device's individual attestation key, derived from
    /// `effective_seed(key_seed, epoch)` at install time.
    pub(crate) keystore: KeyStore,
    /// The precomputed verification-side key schedule — built once at
    /// install so drains resolve keys by borrow, with no per-proof
    /// HMAC-pad recomputation.
    pub(crate) ra: RaVerifier,
}

impl DeviceRecord {
    /// The device's attestation key — needed by provisioning (to install
    /// the same key on the physical device) and by ingest (to check MACs).
    #[must_use]
    pub fn keystore(&self) -> &KeyStore {
        &self.keystore
    }

    /// The verifier-side key schedule proofs from this device are checked
    /// under (the [`KeySource`](dialed::request::KeySource) answer for
    /// this device).
    #[must_use]
    pub fn ra(&self) -> &RaVerifier {
        &self.ra
    }

    /// The key-rotation epoch this device was provisioned under.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

/// One shard's slice of the device space. Device ids are fleet-global
/// (allocated by the facade's router); each shard only ever sees the ids
/// the consistent-hash ring maps to it, so the map is sparse by design.
#[derive(Debug, Default)]
pub struct Registry {
    devices: BTreeMap<u64, DeviceRecord>,
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs a device record — the apply half of registration, driven
    /// both live and by event replay. The key schedule is (re)derived from
    /// the durable `(key_seed, epoch)` pair, so a recovered device checks
    /// MACs under exactly the key it was provisioned with.
    pub(crate) fn install_device(&mut self, id: DeviceId, op: OpId, key_seed: u64, epoch: u64) {
        let keystore = KeyStore::from_seed(effective_seed(key_seed, epoch));
        let ra = RaVerifier::new(keystore.clone());
        self.devices.insert(
            id.0,
            DeviceRecord {
                id,
                op,
                last_verified: None,
                verified: 0,
                rejected: 0,
                key_seed,
                epoch,
                keystore,
                ra,
            },
        );
    }

    /// Removes a device, returning its record (the apply half of
    /// deregistration).
    pub(crate) fn remove_device(&mut self, id: DeviceId) -> Option<DeviceRecord> {
        self.devices.remove(&id.0)
    }

    /// Looks up a device.
    ///
    /// # Errors
    ///
    /// Fails if the device is unknown (never registered, routed to a
    /// different shard, or deregistered).
    pub fn device(&self, id: DeviceId) -> Result<&DeviceRecord, RegistryError> {
        self.devices.get(&id.0).ok_or(RegistryError::UnknownDevice(id))
    }

    pub(crate) fn device_mut(&mut self, id: DeviceId) -> Result<&mut DeviceRecord, RegistryError> {
        self.devices.get_mut(&id.0).ok_or(RegistryError::UnknownDevice(id))
    }

    /// All devices on this shard, in id order.
    pub fn devices(&self) -> impl Iterator<Item = &DeviceRecord> {
        self.devices.values()
    }

    /// Number of devices on this shard.
    #[must_use]
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// Whether this shard holds no devices.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// Records a verdict for `device`: bumps its counters and, for a
    /// verified session, advances the last-verified counter (never
    /// backwards — a stale verdict cannot regress history).
    pub(crate) fn record_verdict(&mut self, device: DeviceId, nonce: u64, verified: bool) {
        let Ok(rec) = self.device_mut(device) else { return };
        if verified {
            rec.verified += 1;
            let advance = match rec.last_verified {
                Some(prev) => nonce > prev,
                None => true,
            };
            if advance {
                rec.last_verified = Some(nonce);
            }
        } else {
            rec.rejected += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dialed::pipeline::BuildOptions;

    fn tiny_op() -> InstrumentedOp {
        let src = ".org 0xE000\nop:\n mov r15, &0x0060\n ret\n";
        InstrumentedOp::build(src, "op", &BuildOptions::default()).unwrap()
    }

    #[test]
    fn multiple_ops_and_devices_register() {
        let mut ops = OpTable::new();
        let a = ops.register_op("alpha", tiny_op(), vec![]);
        let b = ops.register_op("beta", tiny_op(), vec![]);
        assert_ne!(a, b);
        assert_eq!(ops.len(), 2);

        let mut reg = Registry::new();
        reg.install_device(DeviceId(0), a, 100, 0);
        reg.install_device(DeviceId(1), b, 101, 0);
        reg.install_device(DeviceId(2), a, 102, 0);
        assert_eq!(reg.device(DeviceId(0)).unwrap().op, a);
        assert_eq!(reg.device(DeviceId(1)).unwrap().op, b);
        assert_eq!(reg.device(DeviceId(2)).unwrap().op, a);
        assert_eq!(reg.devices().count(), 3);
    }

    #[test]
    fn unknown_ids_error() {
        let ops = OpTable::new();
        assert_eq!(ops.op(OpId(9)).unwrap_err(), RegistryError::UnknownOp(OpId(9)));
        let mut reg = Registry::new();
        assert_eq!(reg.device(DeviceId(3)).unwrap_err(), RegistryError::UnknownDevice(DeviceId(3)));
        reg.install_device(DeviceId(3), OpId(0), 1, 0);
        assert!(reg.device(DeviceId(3)).is_ok());
        assert!(reg.remove_device(DeviceId(3)).is_some());
        assert_eq!(reg.device(DeviceId(3)).unwrap_err(), RegistryError::UnknownDevice(DeviceId(3)));
    }

    #[test]
    fn last_verified_counter_is_monotonic() {
        let mut reg = Registry::new();
        let dev = DeviceId(0);
        reg.install_device(dev, OpId(0), 7, 0);
        reg.record_verdict(dev, 5, true);
        assert_eq!(reg.device(dev).unwrap().last_verified, Some(5));
        // A stale verdict (e.g. a late-drained older session) cannot
        // regress the counter.
        reg.record_verdict(dev, 3, true);
        assert_eq!(reg.device(dev).unwrap().last_verified, Some(5));
        reg.record_verdict(dev, 8, false);
        let rec = reg.device(dev).unwrap();
        assert_eq!(rec.last_verified, Some(5));
        assert_eq!((rec.verified, rec.rejected), (2, 1));
    }

    #[test]
    fn epoch_rotates_the_derived_key() {
        use vrased::{Challenge, SwAtt};

        let mut reg = Registry::new();
        reg.install_device(DeviceId(0), OpId(0), 42, 0);
        reg.install_device(DeviceId(1), OpId(0), 42, 1);
        // Same seed, different epoch ⇒ different key schedule; epoch 0 is
        // the identity so pre-rotation fleets keep their original keys.
        assert_eq!(effective_seed(42, 0), 42);
        assert_ne!(effective_seed(42, 0), effective_seed(42, 1));

        // A device provisioned with the epoch-mixed seed MACs under
        // exactly the key the installed record checks — the property
        // recovery (which re-derives keys from the durable pair) relies
        // on — while the pre-rotation record rejects the same response.
        let device_side = SwAtt::new(KeyStore::from_seed(effective_seed(42, 1)));
        let chal = Challenge::derive(b"epoch-test", 0);
        let regions: &[(u16, u16, &[u8])] = &[(0, 1, &[0xAA, 0xBB])];
        let resp = device_side.attest_region_bytes(&chal, regions, b"");
        assert!(reg
            .device(DeviceId(1))
            .unwrap()
            .ra()
            .check_region_bytes(&chal, regions, b"", &resp));
        assert!(!reg
            .device(DeviceId(0))
            .unwrap()
            .ra()
            .check_region_bytes(&chal, regions, b"", &resp));
    }
}
