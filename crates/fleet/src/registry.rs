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
//!   shard owns: device `d` of a fleet of `N` shards lives on shard
//!   `d mod N`, in slot `d / N` of a dense table, so a lookup is one
//!   index and a check of the slot's id. A record is exactly what the
//!   shard's write-ahead log persists (op, seed, epoch, counters). The key
//!   schedule derived from `seed ⊕ f(epoch)` is per-boot state: the
//!   device's first challenge ([`Fleet::issue`](crate::Fleet::issue))
//!   builds it into the session layer, beside the device's nonce and
//!   replay window, so a registration or a recovery costs no hashing.
//!
//! The dense table relies on ids being dense and never retired: its
//! length follows the highest id ever installed, not the live devices. A
//! deregistration leaves an empty slot (the size of a record, ≤ 64 B)
//! that stays for good, and [`Registry::devices`] and compaction walk it,
//! so a fleet that keeps registering and deregistering devices grows
//! without bound. No benchmark workload deregisters a device.
//!
//! Verified verdicts flow back in from the ingest stage, advancing each
//! device's last-verified counter.

use dialed::pipeline::{InstrumentMode, InstrumentedOp};
use dialed::policy::Policy;
use dialed::report::RejectReason;
use dialed::request::Verifier;
use dialed::DialedVerifier;
use std::fmt;
use vrased::KeyStore;

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

/// Per-device registry state: exactly the fields the shard's WAL holds.
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
    /// half of the key material (what the WAL persists).
    pub(crate) key_seed: u64,
    /// The key-rotation epoch the device was provisioned under.
    pub(crate) epoch: u64,
}

impl DeviceRecord {
    /// The device's attestation key — what provisioning installs on the
    /// physical device. Derived on each call from the durable
    /// `(key_seed, epoch)` pair.
    #[must_use]
    pub fn keystore(&self) -> KeyStore {
        KeyStore::from_seed(effective_seed(self.key_seed, self.epoch))
    }

    /// The key-rotation epoch this device was provisioned under.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

/// One shard's slice of the device space. Device ids are fleet-global
/// and dense (allocated by the [`Fleet`](crate::Fleet)); of `N` shards,
/// shard `s` only ever sees the ids `s, s+N, s+2N, …`, so `d / N` is a
/// dense index: device `d` sits in slot `d / N` of one table.
#[derive(Debug)]
pub struct Registry {
    /// Slot `d / stride` holds device `d`, or nothing (never installed
    /// here, or deregistered: ids are not reused, so the hole stays). A
    /// lookup checks the slot's id, so an id another shard owns, or one
    /// past the end, is unknown here; a lookup never grows the table.
    slots: Vec<Option<DeviceRecord>>,
    stride: u64,
    /// Occupied slots.
    len: usize,
    /// One past the highest device id ever installed here, deregistered
    /// ones included, so a recovered fleet never issues an id twice.
    pub(crate) next_device: u64,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// An empty registry holding every id (one shard of one).
    #[must_use]
    pub fn new() -> Self {
        Self::strided(1)
    }

    /// An empty registry for one shard of `stride`.
    pub(crate) fn strided(stride: u64) -> Self {
        Self { slots: Vec::new(), stride: stride.max(1), len: 0, next_device: 0 }
    }

    /// The slot device `id` would occupy.
    fn slot(&self, id: DeviceId) -> usize {
        usize::try_from(id.0 / self.stride).unwrap_or(usize::MAX)
    }

    /// Installs a device record — the apply half of registration, driven
    /// both live and by event replay, in any id order. It keeps only the
    /// durable `(key_seed, epoch)` pair: the key schedule is derived from
    /// it on the device's first challenge, so a recovered device checks
    /// MACs under exactly the key it was provisioned with.
    pub(crate) fn install_device(&mut self, id: DeviceId, op: OpId, key_seed: u64, epoch: u64) {
        self.next_device = self.next_device.max(id.0 + 1);
        let i = self.slot(id);
        if self.slots.len() <= i {
            self.slots.resize_with(i + 1, || None);
        }
        let record =
            DeviceRecord { id, op, last_verified: None, verified: 0, rejected: 0, key_seed, epoch };
        match self.slots[i].replace(record) {
            None => self.len += 1,
            Some(previous) => debug_assert_eq!(
                previous.id, id,
                "two ids share slot {i} of a stride-{} table: routing is broken",
                self.stride
            ),
        }
    }

    /// Removes a device, returning its record (the apply half of
    /// deregistration).
    pub(crate) fn remove_device(&mut self, id: DeviceId) -> Option<DeviceRecord> {
        self.device_mut(id).ok()?;
        self.len -= 1;
        let i = self.slot(id);
        self.slots[i].take()
    }

    /// Looks up a device.
    ///
    /// # Errors
    ///
    /// Fails if the device is unknown (never registered, routed to a
    /// different shard, or deregistered).
    pub fn device(&self, id: DeviceId) -> Result<&DeviceRecord, RegistryError> {
        match self.slots.get(self.slot(id)) {
            Some(Some(rec)) if rec.id == id => Ok(rec),
            _ => Err(RegistryError::UnknownDevice(id)),
        }
    }

    pub(crate) fn device_mut(&mut self, id: DeviceId) -> Result<&mut DeviceRecord, RegistryError> {
        let i = self.slot(id);
        match self.slots.get_mut(i) {
            Some(Some(rec)) if rec.id == id => Ok(rec),
            _ => Err(RegistryError::UnknownDevice(id)),
        }
    }

    /// All devices on this shard, in id order.
    pub fn devices(&self) -> impl Iterator<Item = &DeviceRecord> {
        self.slots.iter().flatten()
    }

    /// Number of devices on this shard.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether this shard holds no devices.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
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
    fn foreign_and_out_of_range_ids_are_unknown_and_never_grow_the_table() {
        // Shard 2 of 4 holds 2, 6, 10 in slots 0, 1, 2.
        let mut reg = Registry::strided(4);
        for d in [2, 6, 10] {
            reg.install_device(DeviceId(d), OpId(0), d, 0);
        }
        let unknown = |id: u64| Err(RegistryError::UnknownDevice(DeviceId(id)));
        // 3 and 5 index occupied slots but are another shard's; 14 and
        // u64::MAX lie past the end.
        for id in [3, 5, 14, u64::MAX] {
            assert_eq!(reg.device(DeviceId(id)).map(|r| r.id), unknown(id));
            assert!(reg.device_mut(DeviceId(id)).is_err());
            assert!(reg.remove_device(DeviceId(id)).is_none());
            reg.record_verdict(DeviceId(id), 9, true);
        }
        assert_eq!((reg.len(), reg.slots.len()), (3, 3));
        assert!(reg.devices().all(|d| d.verified == 0), "no verdict reached a neighbour");
    }

    #[test]
    fn out_of_order_installs_iterate_in_id_order() {
        // Recovery replays registrations in log order, which after a
        // compaction and a few live registrations need not be id order.
        let mut reg = Registry::strided(3);
        for d in [13, 1, 7, 4, 10] {
            reg.install_device(DeviceId(d), OpId(0), d, 0);
        }
        let ids: Vec<u64> = reg.devices().map(|d| d.id.0).collect();
        assert_eq!(ids, [1, 4, 7, 10, 13]);
        assert_eq!((reg.len(), reg.next_device), (5, 14));
    }

    #[test]
    fn a_deregistration_leaves_a_hole_that_iteration_skips() {
        let mut reg = Registry::strided(2);
        for d in [0, 2, 4, 6] {
            reg.install_device(DeviceId(d), OpId(0), d, 0);
        }
        assert_eq!(reg.remove_device(DeviceId(2)).map(|r| r.id), Some(DeviceId(2)));
        assert!(reg.remove_device(DeviceId(2)).is_none(), "a hole is removed once");
        let ids: Vec<u64> = reg.devices().map(|d| d.id.0).collect();
        assert_eq!(ids, [0, 4, 6]);
        assert_eq!((reg.len(), reg.next_device), (3, 7));
        assert!(reg.device(DeviceId(2)).is_err());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "two ids share slot 1")]
    fn two_ids_in_one_slot_fail_loudly() {
        // 4 and 5 both map to slot 1 of a stride-4 table; only routing
        // keeps them apart, so a second install must not drop the first.
        let mut reg = Registry::strided(4);
        reg.install_device(DeviceId(4), OpId(0), 4, 0);
        reg.install_device(DeviceId(5), OpId(0), 5, 0);
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
        use crate::session::SessionManager;
        use vrased::{Challenge, SwAtt};

        let mut reg = Registry::new();
        reg.install_device(DeviceId(0), OpId(0), 42, 0);
        reg.install_device(DeviceId(1), OpId(0), 42, 1);
        let mut sessions = SessionManager::new(b"epoch-test", 10, 4);
        for id in [0, 1] {
            let rec = reg.device(DeviceId(id)).unwrap();
            sessions.issue(rec.id, rec.op, 0);
            sessions.derive_keys(rec.id, || rec.keystore());
        }
        let ra = |id| sessions.device_state(DeviceId(id)).unwrap().ra.as_ref().unwrap();
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
        assert!(ra(1).check_region_bytes(&chal, regions, b"", &resp));
        assert!(!ra(0).check_region_bytes(&chal, regions, b"", &resp));
    }

    #[test]
    fn footprint_of_a_slot_is_at_most_64_bytes() {
        // Every slot of the dense table, a hole included, costs this much:
        // a record holds only what the WAL holds, and a derived key
        // schedule lives in the session layer.
        let slot = std::mem::size_of::<Option<DeviceRecord>>();
        assert!(slot <= 64, "Option<DeviceRecord> is {slot} B");
    }

    #[test]
    fn churn_probe_holes_grow_with_ids_ever_issued() {
        // A fleet of 4 shards keeps 256 devices live: each round registers
        // 64 new ones and deregisters the 64 oldest. Ids are never reused,
        // so every shard's table follows the ids ever issued, not the live
        // devices, and each deregistration leaves a hole.
        const SHARDS: u64 = 4;
        const LIVE: u64 = 256;
        const CHURN: u64 = 64;
        let mut shards: Vec<Registry> = (0..SHARDS).map(|_| Registry::strided(SHARDS)).collect();
        let shard = |d: u64| (d % SHARDS) as usize;
        for d in 0..LIVE {
            shards[shard(d)].install_device(DeviceId(d), OpId(0), d, 0);
        }
        let hole = std::mem::size_of::<Option<DeviceRecord>>();
        let mut issued = LIVE;
        for round in 1..=8 {
            for d in issued..issued + CHURN {
                shards[shard(d)].install_device(DeviceId(d), OpId(0), d, 0);
            }
            for d in issued - LIVE..issued - LIVE + CHURN {
                assert!(shards[shard(d)].remove_device(DeviceId(d)).is_some());
            }
            issued += CHURN;
            let live: usize = shards.iter().map(Registry::len).sum();
            let slots: usize = shards.iter().map(|r| r.slots.len()).sum();
            let holes = slots - live;
            println!(
                "churn round {round}: {issued} ids issued, {live} live, {slots} slots, \
                 {holes} holes × {hole} B = {} B",
                holes * hole
            );
            assert_eq!(live as u64, LIVE);
            // The current bound: no slot is ever reclaimed.
            for r in &shards {
                assert_eq!(r.slots.len() as u64, issued / SHARDS);
            }
        }
    }
}
