//! The fleet attestation service — the server frontend of a DIALED
//! deployment.
//!
//! The lower crates prove and verify a *single* proof; this crate runs the
//! protocol at fleet scale, durably:
//!
//! ```text
//!                  ┌───────────────── [`Fleet`] ─────────────────┐
//!                  │  [`OpTable`]: ops + shared batch verifiers  │
//!                  │  [`HashRing`]: DeviceId → shard             │
//!                  └──────┬───────────────┬──────────────┬───────┘
//!                  ┌──────▼─────┐  ┌──────▼─────┐  ┌─────▼──────┐
//!                  │ [`Shard`] 0│  │ [`Shard`] 1│  │ [`Shard`] N│
//!                  │ registry   │  │            │  │            │
//!                  │ sessions   │  │    …       │  │    …       │
//!                  │ ingest     │  │            │  │            │
//!                  ├────────────┤  ├────────────┤  ├────────────┤
//!                  │ WAL + snap │  │ WAL + snap │  │ WAL + snap │
//!                  └────────────┘  └────────────┘  └────────────┘
//! ```
//!
//! * [`registry`] — who exists: the fleet-global operation table
//!   (instrumented images + shared batch verifiers) and per-shard device
//!   records (individual keys, bound operation, last-verified counters).
//! * [`session`] — challenge lifecycle: monotonic per-device nonces, the
//!   `Issued → Submitted → Verified/Rejected/Expired` state machine,
//!   deadline expiry, duplicate- and replay-rejection *before* any
//!   cryptographic work.
//! * [`wire`] — the versioned, length-prefixed binary codec for every
//!   protocol message; all decode paths are total.
//! * [`ingest`] — each shard's pending-submission queue, drained in
//!   per-operation batches through one [`dialed::BatchVerifier`].
//! * [`store`] — durable [`StateEvent`]s, the write-ahead log, snapshots.
//! * [`shard`] — the consistent-hash ring and the shard state machine
//!   tying the above together.
//!
//! # Durability
//!
//! Every mutation is an event: appended to the owning shard's WAL (or the
//! fleet's meta log), then applied. [`Fleet::recover`] replays snapshot +
//! WAL through the *same* apply path, so a restart restores session
//! nonces, anti-replay windows and last-verified counters exactly — a
//! proof accepted before a crash can never be replayed after it. A fleet
//! built with [`Fleet::new`] keeps everything in memory (tests,
//! experiments); [`Fleet::durable`] adds the log.
//!
//! Shards share no mutable state and drain on independent threads; the
//! batch engines in the [`OpTable`] are borrowed read-only by every
//! drain, so adding shards adds ingest parallelism without adding locks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ingest;
pub mod net;
pub mod registry;
pub mod session;
pub mod shard;
pub mod store;
pub mod wire;

pub use apex::pox::DigestCacheStats;
pub use ingest::{DrainStats, IngestQueue};
pub use net::{NetClient, NetConfig, NetServer, NetServerHandle, NetStats};
pub use registry::{DeviceId, DeviceRecord, OpId, OpRecord, OpTable, Registry, RegistryError};
pub use session::{Session, SessionError, SessionId, SessionManager, SessionState};
pub use shard::{HashRing, Shard};
pub use store::{RecoverError, StateEvent};
pub use wire::{
    BatchSummary, ChallengeMsg, FrameReader, GrantMsg, IssueMsg, Message, ProofMsg, RejectMsg,
    ReportMsg, SubmitMsg, VerdictMsg, WireError,
};

use crate::shard::ShardParams;
use crate::store::Wal;
use dialed::attest::DialedProof;
use dialed::batch::PARALLEL_MIN_JOBS;
use dialed::pipeline::InstrumentedOp;
use dialed::policy::Policy;
use std::io;
use std::path::Path;
use vrased::KeyStore;

/// Tunables for a [`Fleet`].
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Label challenges are derived under (separates deployments).
    pub label: Vec<u8>,
    /// Session lifetime in logical ticks.
    pub challenge_ttl: u64,
    /// Per-device anti-replay window depth (accepted proof tags).
    pub replay_window: usize,
    /// Worker threads per operation's batch verifier
    /// (`None` = one per core).
    pub workers: Option<usize>,
    /// State shards. More shards drain more batches concurrently. Pinned
    /// at first creation for durable fleets: recovery uses the shard
    /// count from the meta log, not this field, because re-sharding would
    /// re-route devices away from their logged state.
    pub shards: usize,
    /// Durable mode: committed events between snapshots on each shard.
    /// Smaller values bound WAL segment length (and recovery replay time)
    /// at the cost of more frequent snapshot writes.
    pub snapshot_every: usize,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            label: b"dialed-fleet".to_vec(),
            challenge_ttl: 64,
            replay_window: 32,
            workers: None,
            shards: 4,
            snapshot_every: 4096,
        }
    }
}

impl FleetConfig {
    fn shard_params(&self) -> ShardParams {
        ShardParams {
            label: self.label.clone(),
            ttl: self.challenge_ttl,
            window_cap: self.replay_window,
            snapshot_every: self.snapshot_every,
        }
    }
}

/// Rebuilds operation artifacts at recovery. Operations are *code* —
/// an instrumented image plus its policies — and code is not state: the
/// durable log records only each operation's name and mode, and recovery
/// asks the catalog to re-supply the artifact (typically rebuilt from the
/// same source the deployment ships).
pub trait OpCatalog {
    /// The artifact registered under `name`, or `None` if unknown.
    fn lookup(&self, name: &str) -> Option<(InstrumentedOp, Vec<Box<dyn Policy>>)>;
}

/// Adapts a closure into an [`OpCatalog`].
pub struct CatalogFn<F>(pub F);

impl<F> OpCatalog for CatalogFn<F>
where
    F: Fn(&str) -> Option<(InstrumentedOp, Vec<Box<dyn Policy>>)>,
{
    fn lookup(&self, name: &str) -> Option<(InstrumentedOp, Vec<Box<dyn Policy>>)> {
        (self.0)(name)
    }
}

/// The attestation service: a consistent-hash router over durable state
/// shards, sharing one operation table.
#[derive(Debug)]
pub struct Fleet {
    config: FleetConfig,
    ops: OpTable,
    ring: HashRing,
    shards: Vec<Shard>,
    /// Next fleet-global device id.
    next_device: u64,
    /// Current provisioning-key epoch.
    epoch: u64,
    /// Fleet-level event log (layout, operations, epoch bumps).
    meta: Option<Wal>,
}

impl Fleet {
    /// An in-memory fleet (no durability) with the given tunables.
    #[must_use]
    pub fn new(config: FleetConfig) -> Self {
        let n = config.shards.max(1);
        let params = config.shard_params();
        Self {
            ops: OpTable::new(),
            ring: HashRing::new(n),
            shards: (0..n).map(|i| Shard::in_memory(i, n as u64, &params)).collect(),
            next_device: 0,
            epoch: 0,
            meta: None,
            config,
        }
    }

    /// A durable fleet writing WAL + snapshots under `dir` (created if
    /// missing). Equivalent to [`Fleet::recover`] with an empty catalog —
    /// use it for a *fresh* state directory; reopening one that already
    /// has registered operations needs `recover` and a catalog.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors, or with [`RecoverError::UnknownOp`] if `dir`
    /// already holds operations (recover instead).
    pub fn durable(dir: &Path, config: FleetConfig) -> Result<Self, RecoverError> {
        Self::build(dir, config, None)
    }

    /// Recovers a fleet from `dir`: replays the meta log (layout,
    /// operations via `catalog`, epoch), then each shard's snapshot + WAL
    /// segment through the same apply path live mutations use. The shard
    /// count and every device id, session nonce, anti-replay window and
    /// last-verified counter come back exactly as committed; corrupt or
    /// torn log tails are dropped, never panicked on.
    ///
    /// # Errors
    ///
    /// [`RecoverError::MissingLayout`] if the meta log exists but pins no
    /// shard layout, [`RecoverError::UnknownOp`] if the catalog cannot
    /// rebuild a logged operation, or an I/O failure.
    pub fn recover(
        dir: &Path,
        config: FleetConfig,
        catalog: &dyn OpCatalog,
    ) -> Result<Self, RecoverError> {
        Self::build(dir, config, Some(catalog))
    }

    fn build(
        dir: &Path,
        config: FleetConfig,
        catalog: Option<&dyn OpCatalog>,
    ) -> Result<Self, RecoverError> {
        std::fs::create_dir_all(dir)?;
        let meta_path = dir.join("meta.log");
        let events = store::read_events(&meta_path)?;
        let n = match events.first() {
            Some(StateEvent::ShardLayout { shards }) => (*shards as usize).max(1),
            Some(_) => return Err(RecoverError::MissingLayout),
            None => config.shards.max(1),
        };
        let fresh = events.is_empty();

        let mut ops = OpTable::new();
        let mut epoch = 0;
        for ev in &events {
            match ev {
                StateEvent::OpRegistered { op, name, .. } => {
                    let Some((image, policies)) = catalog.and_then(|c| c.lookup(name)) else {
                        return Err(RecoverError::UnknownOp(name.clone()));
                    };
                    let got = ops.register_op(name, image, policies, config.workers);
                    debug_assert_eq!(got, *op, "op ids replay in registration order");
                }
                StateEvent::EpochBumped { epoch: e } => epoch = *e,
                _ => {}
            }
        }

        let params = config.shard_params();
        let mut shards = Vec::with_capacity(n);
        for i in 0..n {
            shards.push(Shard::recover(&dir.join(format!("shard-{i}")), i, n as u64, &params)?);
        }

        // Derived fleet-level counters: the next device id must clear
        // every id that ever held state (including deregistered devices,
        // whose per-device session history outlives their registry
        // record), and per-op device counts are recomputed from the
        // recovered registries.
        let mut next_device = 0;
        for shard in &shards {
            for d in shard.registry().devices() {
                next_device = next_device.max(d.id.0 + 1);
                if let Ok(rec) = ops.op_mut(d.op) {
                    rec.devices += 1;
                }
            }
            for dev in shard.sessions.per_device.keys() {
                next_device = next_device.max(dev.0 + 1);
            }
        }

        let mut meta = Wal::open(&meta_path)?;
        if fresh {
            meta.append(&StateEvent::ShardLayout { shards: n as u32 })?;
        }
        Ok(Self {
            ops,
            ring: HashRing::new(n),
            shards,
            next_device,
            epoch,
            meta: Some(meta),
            config,
        })
    }

    /// Appends a fleet-level event to the meta log. Fail-stop like the
    /// shard WAL: an un-persistable mutation must not happen.
    fn meta_commit(&mut self, ev: &StateEvent) {
        if let Some(meta) = &mut self.meta {
            meta.append(ev).expect("meta WAL append failed: refusing to mutate non-durable state");
        }
    }

    /// Registers an operation (see [`OpTable::register_op`]).
    pub fn register_op(
        &mut self,
        name: &str,
        op: InstrumentedOp,
        policies: Vec<Box<dyn Policy>>,
    ) -> OpId {
        let id = self.ops.register_op(name, op, policies, self.config.workers);
        let mode = self.ops.op(id).expect("just registered").mode;
        self.meta_commit(&StateEvent::OpRegistered { op: id, name: name.to_string(), mode });
        id
    }

    /// Registers a device bound to `op` with its provisioning key seed.
    /// The effective key mixes the seed with the current provisioning
    /// epoch (see [`Fleet::rotate_provisioning_epoch`]); the id is
    /// fleet-global and the record lands on the shard the hash ring
    /// assigns it.
    ///
    /// # Errors
    ///
    /// Fails if `op` is unknown.
    pub fn register_device(&mut self, op: OpId, key_seed: u64) -> Result<DeviceId, RegistryError> {
        self.ops.op(op)?;
        let device = DeviceId(self.next_device);
        self.next_device += 1;
        let epoch = self.epoch;
        let idx = self.ring.route(device);
        self.shards[idx].commit(StateEvent::DeviceRegistered { device, op, key_seed, epoch });
        self.ops.op_mut(op).expect("checked above").devices += 1;
        Ok(device)
    }

    /// Removes a device from the fleet. Its open (`Issued`/`Submitted`)
    /// sessions flip to `Expired` — dropping any queued proof — so later
    /// submissions against them fail with a structured
    /// [`SessionError::NotAwaitingProof`], and issuing to the device fails
    /// with [`RegistryError::UnknownDevice`]. Returns how many open
    /// sessions were expired.
    ///
    /// # Errors
    ///
    /// Fails if the device is unknown (or already deregistered).
    pub fn deregister_device(&mut self, device: DeviceId) -> Result<usize, RegistryError> {
        let idx = self.ring.route(device);
        let shard = &mut self.shards[idx];
        let op = shard.registry.device(device)?.op;
        let open = shard
            .sessions
            .sessions()
            .filter(|s| {
                s.device == device
                    && matches!(s.state, SessionState::Issued | SessionState::Submitted)
            })
            .count();
        shard.commit(StateEvent::DeviceDeregistered { device });
        if let Ok(rec) = self.ops.op_mut(op) {
            rec.devices = rec.devices.saturating_sub(1);
        }
        Ok(open)
    }

    /// Advances the provisioning-key epoch and returns the new value.
    /// Devices registered from now on derive their keys from
    /// `seed ⊕ f(epoch)`, so a leaked provisioning seed stops minting
    /// usable keys once the epoch moves; already-registered devices keep
    /// the keys they were installed with. Durable: the bump is a meta-log
    /// event and survives recovery.
    pub fn rotate_provisioning_epoch(&mut self) -> u64 {
        self.epoch += 1;
        let epoch = self.epoch;
        self.meta_commit(&StateEvent::EpochBumped { epoch });
        // An epoch rotation may accompany re-provisioning with fresh
        // images, so every op's memoized expected-ER digest is dropped;
        // the next drain of each op recomputes it exactly once.
        for op in self.ops.ops() {
            op.invalidate_digest_cache();
        }
        epoch
    }

    /// Aggregated expected-ER digest-cache counters across every
    /// registered operation (see [`OpRecord::digest_cache_stats`]).
    #[must_use]
    pub fn digest_cache_stats(&self) -> DigestCacheStats {
        let mut total = DigestCacheStats::default();
        for op in self.ops.ops() {
            if let Some(stats) = op.digest_cache_stats() {
                total.merge(stats);
            }
        }
        total
    }

    /// The current provisioning-key epoch.
    #[must_use]
    pub fn provisioning_epoch(&self) -> u64 {
        self.epoch
    }

    /// The attestation key a registered device was provisioned with (the
    /// device side of a simulation installs the same key).
    ///
    /// # Errors
    ///
    /// Fails if the device is unknown.
    pub fn device_keystore(&self, device: DeviceId) -> Result<KeyStore, RegistryError> {
        Ok(self.device(device)?.keystore().clone())
    }

    /// Issues a challenge to `device` at logical time `now`, returning the
    /// wire-ready challenge message. Durable *before* visible: the
    /// issuance event commits to the shard's WAL, so a crash cannot forget
    /// a nonce it already handed out.
    ///
    /// # Errors
    ///
    /// Fails if the device is unknown.
    pub fn issue(&mut self, device: DeviceId, now: u64) -> Result<ChallengeMsg, RegistryError> {
        let ttl = self.config.challenge_ttl;
        let idx = self.ring.route(device);
        let shard = &mut self.shards[idx];
        let op = shard.registry.device(device)?.op;
        let session = shard.sessions.peek_next_id();
        let nonce = shard.sessions.next_nonce(device);
        let deadline = now.saturating_add(ttl);
        shard.commit(StateEvent::ChallengeIssued {
            session,
            device,
            op,
            nonce,
            issued_at: now,
            deadline,
        });
        let s = shard.sessions.session(session).expect("just installed");
        Ok(ChallengeMsg {
            session: session.0,
            device: device.0,
            nonce,
            deadline,
            challenge: s.challenge,
        })
    }

    /// The shard owning `session` (ids are strided: shard `s` of `N`
    /// mints `s, s+N, s+2N, …`).
    fn shard_of_session(&self, session: SessionId) -> usize {
        (session.0 % self.shards.len() as u64) as usize
    }

    /// Accepts a device's proof for a session. On success the accepted
    /// proof becomes a durable event and is queued on the session's shard;
    /// on error nothing reaches the verifier (duplicates and replays die
    /// here) and nothing is written.
    ///
    /// # Errors
    ///
    /// See [`SessionError`].
    pub fn submit(
        &mut self,
        session: SessionId,
        device: DeviceId,
        proof: DialedProof,
        now: u64,
    ) -> Result<(), SessionError> {
        let idx = self.shard_of_session(session);
        let shard = &mut self.shards[idx];
        shard.sessions.check_submit(session, device, &proof.pox.tag, now)?;
        shard.commit(StateEvent::ProofAccepted { session, device, proof });
        Ok(())
    }

    /// [`Fleet::submit`] from an encoded [`ProofMsg`] frame, as received
    /// off the network.
    ///
    /// # Errors
    ///
    /// `Err(Ok(session_error))` for session-layer rejection,
    /// `Err(Err(wire_error))` for undecodable bytes (including non-proof
    /// messages).
    pub fn submit_wire(&mut self, bytes: &[u8], now: u64) -> SubmitWireResult {
        let msg = match wire::decode(bytes) {
            Ok(Message::Proof(m)) => m,
            Ok(_) => return Err(Err(WireError::UnexpectedMessage { expected: "proof" })),
            Err(e) => return Err(Err(e)),
        };
        let (session, device) = (SessionId(msg.session), DeviceId(msg.device));
        match self.submit(session, device, msg.proof, now) {
            Ok(()) => Ok(session),
            Err(e) => Err(Ok(e)),
        }
    }

    /// Expires overdue sessions ([`Fleet::expire`]), then verifies every
    /// queued submission ([`Fleet::verify_pending`]). Returns the summed
    /// drain statistics plus how many sessions expired.
    pub fn drain(&mut self, now: u64) -> (DrainStats, usize) {
        let expired = self.expire(now);
        (self.verify_pending(&mut Vec::new()), expired)
    }

    /// Flips every `Issued` session whose deadline lies before `now` to
    /// `Expired`, returning how many flipped. Scans every retained
    /// session: a frontend runs it on a clock, not per submission.
    pub fn expire(&mut self, now: u64) -> usize {
        self.shards.iter_mut().map(|s| s.expire(now)).sum()
    }

    /// Verifies every queued submission through the shared operation
    /// engines, feeding verdicts back into sessions and registries, and
    /// appends the id of each session it settled to `settled` — so a
    /// frontend replies for exactly those without scanning its table of
    /// outstanding requests. Touches only the queued sessions.
    ///
    /// With fewer than [`dialed::batch::PARALLEL_MIN_JOBS`] submissions
    /// pending, busy shards drain one after the other on the calling
    /// thread; from there on they drain **in parallel** on scoped threads
    /// — they share no mutable state, and the engines take `&self`.
    pub fn verify_pending(&mut self, settled: &mut Vec<SessionId>) -> DrainStats {
        let pending = self.pending();
        let ops = &self.ops;
        let busy: Vec<&mut Shard> = self.shards.iter_mut().filter(|s| s.pending() > 0).collect();
        let mut stats = DrainStats::default();
        if busy.len() <= 1 || pending < PARALLEL_MIN_JOBS {
            for shard in busy {
                stats.merge(shard.drain(ops, settled));
            }
        } else {
            let results: Vec<(DrainStats, Vec<SessionId>)> = std::thread::scope(|scope| {
                let handles: Vec<_> = busy
                    .into_iter()
                    .map(|shard| {
                        scope.spawn(move || {
                            let mut settled = Vec::new();
                            (shard.drain(ops, &mut settled), settled)
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("shard drain panicked")).collect()
            });
            for (r, mut s) in results {
                stats.merge(r);
                settled.append(&mut s);
            }
        }
        stats
    }

    /// Pending (submitted, not yet drained) sessions across all shards.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.shards.iter().map(Shard::pending).sum()
    }

    /// Per-shard ingest queue depths, indexed like [`shards`](Self::shards).
    #[must_use]
    pub fn ingest_depths(&self) -> Vec<usize> {
        self.shards.iter().map(Shard::ingest_depth).collect()
    }

    /// Ingest queue depth of the shard that owns `session`. This is the
    /// backpressure signal: a frontend compares it against its shed
    /// watermark before accepting a submission and answers
    /// [`Overloaded`](dialed::report::RejectReason::Overloaded) instead of
    /// queueing work it cannot verify in time.
    #[must_use]
    pub fn ingest_depth_of(&self, session: SessionId) -> usize {
        self.shards[self.shard_of_session(session)].ingest_depth()
    }

    /// Evicts resolved sessions whose deadline lies before `now` so a
    /// long-running service's memory tracks open rounds, not history (see
    /// [`SessionManager::prune_resolved`]).
    pub fn prune_resolved(&mut self, now: u64) -> usize {
        self.shards.iter_mut().map(|s| s.prune(now)).sum()
    }

    /// Forces a snapshot + WAL rotation on every shard (they also happen
    /// automatically every [`FleetConfig::snapshot_every`] events). A
    /// no-op for in-memory fleets.
    ///
    /// # Errors
    ///
    /// Propagates the first file-system error.
    pub fn snapshot(&mut self) -> io::Result<()> {
        for shard in &mut self.shards {
            shard.snapshot()?;
        }
        Ok(())
    }

    /// Looks up a session.
    #[must_use]
    pub fn session(&self, id: SessionId) -> Option<&Session> {
        self.shards[self.shard_of_session(id)].sessions().session(id)
    }

    /// The wire-ready report message for a resolved session, if any.
    #[must_use]
    pub fn report_msg(&self, id: SessionId) -> Option<ReportMsg> {
        let s = self.session(id)?;
        Some(ReportMsg { session: s.id.0, device: s.device.0, report: s.report.clone()? })
    }

    /// Looks up a device on its shard.
    ///
    /// # Errors
    ///
    /// Fails if the device is unknown.
    pub fn device(&self, id: DeviceId) -> Result<&DeviceRecord, RegistryError> {
        self.shards[self.ring.route(id)].registry().device(id)
    }

    /// All registered devices, shard by shard.
    pub fn devices(&self) -> impl Iterator<Item = &DeviceRecord> {
        self.shards.iter().flat_map(|s| s.registry().devices())
    }

    /// The fleet-global operation table.
    #[must_use]
    pub fn ops(&self) -> &OpTable {
        &self.ops
    }

    /// Looks up an operation.
    ///
    /// # Errors
    ///
    /// Fails if the operation is unknown.
    pub fn op(&self, id: OpId) -> Result<&OpRecord, RegistryError> {
        self.ops.op(id)
    }

    /// The state shards (diagnostics; mutation goes through [`Fleet`]).
    #[must_use]
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// Maps a failed [`Fleet::submit_wire`] outcome into a rejected
    /// [`Report`](dialed::report::Report) carrying the structured
    /// [`RejectReason`](dialed::report::RejectReason), so pre-verification
    /// failures (undecodable bytes, session violations) travel to
    /// operators through the same codec as cryptographic rejections.
    #[must_use]
    pub fn rejection_report(err: Result<SessionError, WireError>) -> dialed::report::Report {
        match err {
            Ok(session) => dialed::report::Report::rejected(session),
            Err(wire) => dialed::report::Report::rejected(wire),
        }
    }
}

/// Result of [`Fleet::submit_wire`]: the accepted session id, or the
/// session-layer / wire-layer rejection.
pub type SubmitWireResult = Result<SessionId, Result<SessionError, WireError>>;

#[cfg(test)]
mod tests {
    use super::*;
    use dialed::attest::DialedDevice;
    use dialed::pipeline::{BuildOptions, InstrumentMode};
    use dialed::report::{RejectReason, Verdict};
    use std::path::PathBuf;

    const OP_SRC: &str = "\
        .org 0xE000\nop:\n mov r15, r10\n add r14, r10\n mov r10, &0x0060\n ret\n";

    fn full_fleet() -> (Fleet, OpId) {
        let mut fleet = Fleet::new(FleetConfig { workers: Some(2), ..FleetConfig::default() });
        let op = InstrumentedOp::build(OP_SRC, "op", &BuildOptions::default()).unwrap();
        let op_id = fleet.register_op("adder", op, vec![]);
        (fleet, op_id)
    }

    /// Drives one device through a full honest round; returns its session.
    fn honest_round(fleet: &mut Fleet, op_id: OpId, seed: u64, now: u64) -> SessionId {
        let op = InstrumentedOp::build(OP_SRC, "op", &BuildOptions::default()).unwrap();
        let dev_id = fleet.register_device(op_id, seed).unwrap();
        let mut device = DialedDevice::new(op, fleet.device_keystore(dev_id).unwrap());
        let chal = fleet.issue(dev_id, now).unwrap();
        device.invoke(&[0, 0, 0, 0, 0, 0, 2, 3]);
        let proof = device.prove(&chal.challenge);
        fleet.submit(SessionId(chal.session), dev_id, proof, now + 1).unwrap();
        SessionId(chal.session)
    }

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("dialed-fleet-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn honest_device_round_trips_to_verified() {
        let (mut fleet, op_id) = full_fleet();
        let sid = honest_round(&mut fleet, op_id, 1, 0);
        assert_eq!(fleet.pending(), 1);
        let (stats, expired) = fleet.drain(2);
        assert_eq!((stats.drained, stats.verified, expired), (1, 1, 0));
        assert_eq!((stats.shards, stats.batches), (1, 1));
        let s = fleet.session(sid).unwrap();
        assert_eq!(s.state, SessionState::Verified);
        assert_eq!(s.report.as_ref().unwrap().verdict, Verdict::Clean);
        let dev = fleet.device(s.device).unwrap();
        assert_eq!(dev.last_verified, Some(0));
        assert_eq!(dev.verified, 1);
        // The verdict is deliverable as a wire frame.
        let msg = fleet.report_msg(sid).unwrap();
        let bytes = wire::encode(&Message::Report(msg.clone()));
        assert_eq!(wire::decode(&bytes), Ok(Message::Report(msg)));
    }

    #[test]
    fn submissions_batch_by_operation() {
        let (mut fleet, op_a) = full_fleet();
        let other = InstrumentedOp::build(
            ".org 0xE000\nop:\n mov r14, &0x0060\n ret\n",
            "op",
            &BuildOptions::default(),
        )
        .unwrap();
        let op_b = fleet.register_op("storer", other.clone(), vec![]);

        let sid_a = honest_round(&mut fleet, op_a, 10, 0);
        let dev_b = fleet.register_device(op_b, 11).unwrap();
        let mut device = DialedDevice::new(other, fleet.device_keystore(dev_b).unwrap());
        let chal = fleet.issue(dev_b, 0).unwrap();
        device.invoke(&[0; 8]);
        let proof = device.prove(&chal.challenge);
        fleet.submit(SessionId(chal.session), dev_b, proof, 1).unwrap();

        let (stats, _) = fleet.drain(2);
        assert_eq!(stats.batches, 2, "two ops ⇒ two engine batches");
        assert_eq!(stats.verified, 2);
        assert_eq!(fleet.session(sid_a).unwrap().state, SessionState::Verified);
    }

    #[test]
    fn many_devices_drain_across_parallel_shards() {
        let (mut fleet, op_id) = full_fleet();
        let sids: Vec<_> = (0..8).map(|i| honest_round(&mut fleet, op_id, 100 + i, 0)).collect();
        assert_eq!(fleet.pending(), 8);
        let (stats, _) = fleet.drain(2);
        assert_eq!((stats.drained, stats.verified), (8, 8));
        assert!(
            stats.shards >= 2,
            "8 sequential device ids should spread over ≥2 of 4 shards, got {}",
            stats.shards
        );
        for sid in sids {
            assert_eq!(fleet.session(sid).unwrap().state, SessionState::Verified);
        }
    }

    #[test]
    fn wire_submission_path_accepts_and_rejects() {
        let (mut fleet, op_id) = full_fleet();
        let op = InstrumentedOp::build(OP_SRC, "op", &BuildOptions::default()).unwrap();
        let dev_id = fleet.register_device(op_id, 3).unwrap();
        let mut device = DialedDevice::new(op, fleet.device_keystore(dev_id).unwrap());
        let chal = fleet.issue(dev_id, 0).unwrap();
        device.invoke(&[0; 8]);
        let proof = device.prove(&chal.challenge);
        let frame = wire::encode(&Message::Proof(ProofMsg {
            session: chal.session,
            device: dev_id.0,
            proof,
        }));
        let sid = fleet.submit_wire(&frame, 1).unwrap();
        // The same frame again is a duplicate, caught at the session layer.
        assert_eq!(
            fleet.submit_wire(&frame, 2),
            Err(Ok(SessionError::NotAwaitingProof(SessionState::Submitted)))
        );
        // Garbage bytes are a wire error.
        assert!(matches!(fleet.submit_wire(b"junk", 2), Err(Err(_))));
        // A well-formed frame of the wrong kind is reported as such.
        assert_eq!(
            fleet.submit_wire(&wire::encode(&Message::Challenge(chal)), 2),
            Err(Err(WireError::UnexpectedMessage { expected: "proof" }))
        );
        let (stats, _) = fleet.drain(3);
        assert_eq!(stats.verified, 1);
        assert_eq!(fleet.session(sid).unwrap().state, SessionState::Verified);
    }

    #[test]
    fn non_full_ops_verify_at_pox_level() {
        let mut fleet = Fleet::new(FleetConfig { workers: Some(1), ..FleetConfig::default() });
        let opts = BuildOptions { mode: InstrumentMode::CfaOnly, ..BuildOptions::default() };
        let op = InstrumentedOp::build(OP_SRC, "op", &opts).unwrap();
        let op_id = fleet.register_op("cfa-only", op.clone(), vec![]);
        let dev_id = fleet.register_device(op_id, 4).unwrap();
        let mut device = DialedDevice::new(op, fleet.device_keystore(dev_id).unwrap());
        let chal = fleet.issue(dev_id, 0).unwrap();
        device.invoke(&[0; 8]);
        let proof = device.prove(&chal.challenge);
        fleet.submit(SessionId(chal.session), dev_id, proof, 1).unwrap();
        let (stats, _) = fleet.drain(2);
        assert_eq!((stats.verified, stats.rejected), (1, 0));

        // A corrupted OR still dies at the PoX MAC for non-Full ops.
        let chal2 = fleet.issue(dev_id, 3).unwrap();
        let mut proof2 = device.prove(&chal2.challenge);
        proof2.pox.or_data[0] ^= 1;
        fleet.submit(SessionId(chal2.session), dev_id, proof2, 4).unwrap();
        let (stats2, _) = fleet.drain(5);
        assert_eq!((stats2.verified, stats2.rejected), (0, 1));
    }

    #[test]
    fn expiry_flows_through_drain() {
        let (mut fleet, op_id) = full_fleet();
        let dev_id = fleet.register_device(op_id, 5).unwrap();
        let chal = fleet.issue(dev_id, 0).unwrap();
        let (stats, expired) = fleet.drain(chal.deadline + 1);
        assert_eq!((stats.drained, expired), (0, 1));
        assert_eq!(fleet.session(SessionId(chal.session)).unwrap().state, SessionState::Expired);
    }

    #[test]
    fn deregistered_device_is_fully_retired() {
        let (mut fleet, op_id) = full_fleet();
        let keep = honest_round(&mut fleet, op_id, 20, 0);
        let dev = fleet.register_device(op_id, 21).unwrap();
        let chal = fleet.issue(dev, 0).unwrap();
        assert_eq!(fleet.op(op_id).unwrap().devices, 2);

        let expired = fleet.deregister_device(dev).unwrap();
        assert_eq!(expired, 1, "the open session is expired");
        assert_eq!(fleet.op(op_id).unwrap().devices, 1);
        assert_eq!(fleet.device(dev).unwrap_err(), RegistryError::UnknownDevice(dev));
        assert_eq!(fleet.deregister_device(dev).unwrap_err(), RegistryError::UnknownDevice(dev));

        // Issuing to the removed device fails with a structured reason.
        let err = fleet.issue(dev, 1).unwrap_err();
        assert!(matches!(RejectReason::from(err), RejectReason::UnknownPrincipal { .. }));

        // A late submission against the expired session maps to a
        // structured RejectReason through the standard wire-path plumbing.
        let op = InstrumentedOp::build(OP_SRC, "op", &BuildOptions::default()).unwrap();
        let mut device = DialedDevice::new(op, KeyStore::from_seed(21));
        device.invoke(&[0; 8]);
        let proof = device.prove(&chal.challenge);
        let frame =
            wire::encode(&Message::Proof(ProofMsg { session: chal.session, device: dev.0, proof }));
        let err = fleet.submit_wire(&frame, 1).unwrap_err();
        assert_eq!(err, Ok(SessionError::NotAwaitingProof(SessionState::Expired)));
        let report = Fleet::rejection_report(err);
        assert!(matches!(
            report.findings.first(),
            Some(dialed::report::Finding::PoxRejected {
                reason: RejectReason::SessionViolation { .. }
            })
        ));

        // The untouched device still drains clean.
        let (stats, _) = fleet.drain(2);
        assert_eq!(stats.verified, 1);
        assert_eq!(fleet.session(keep).unwrap().state, SessionState::Verified);
    }

    #[test]
    fn epoch_rotation_changes_new_keys_only() {
        let (mut fleet, op_id) = full_fleet();
        let before = fleet.register_device(op_id, 50).unwrap();
        assert_eq!(fleet.provisioning_epoch(), 0);
        assert_eq!(fleet.rotate_provisioning_epoch(), 1);
        let after = fleet.register_device(op_id, 50).unwrap();
        assert_eq!(fleet.device(before).unwrap().epoch(), 0);
        assert_eq!(fleet.device(after).unwrap().epoch(), 1);

        // Both devices verify honestly under the keystore the fleet hands
        // out — rotation changes derivation, not the protocol.
        for dev in [before, after] {
            let op = InstrumentedOp::build(OP_SRC, "op", &BuildOptions::default()).unwrap();
            let mut device = DialedDevice::new(op, fleet.device_keystore(dev).unwrap());
            let chal = fleet.issue(dev, 0).unwrap();
            device.invoke(&[0; 8]);
            let proof = device.prove(&chal.challenge);
            fleet.submit(SessionId(chal.session), dev, proof, 1).unwrap();
        }
        let (stats, _) = fleet.drain(2);
        assert_eq!(stats.verified, 2);

        // An attacker holding only the pre-rotation key cannot satisfy a
        // post-rotation device's session.
        let op = InstrumentedOp::build(OP_SRC, "op", &BuildOptions::default()).unwrap();
        let mut stale = DialedDevice::new(op, KeyStore::from_seed(50));
        let chal = fleet.issue(after, 3).unwrap();
        stale.invoke(&[0; 8]);
        let proof = stale.prove(&chal.challenge);
        fleet.submit(SessionId(chal.session), after, proof, 4).unwrap();
        let (stats, _) = fleet.drain(5);
        assert_eq!((stats.verified, stats.rejected), (0, 1));
    }

    #[test]
    fn durable_fleet_survives_restart() {
        let dir = tmp_dir("lifecycle");
        let config = FleetConfig { workers: Some(1), shards: 2, ..FleetConfig::default() };
        let (sid, dev) = {
            let mut fleet = Fleet::durable(&dir, config.clone()).unwrap();
            let op = InstrumentedOp::build(OP_SRC, "op", &BuildOptions::default()).unwrap();
            let op_id = fleet.register_op("adder", op, vec![]);
            let sid = honest_round(&mut fleet, op_id, 77, 0);
            let (stats, _) = fleet.drain(1);
            assert_eq!(stats.verified, 1);
            (sid, fleet.session(sid).unwrap().device)
        };

        // durable() on a dir with registered ops refuses (needs a catalog).
        assert!(matches!(
            Fleet::durable(&dir, config.clone()),
            Err(RecoverError::UnknownOp(name)) if name == "adder"
        ));

        let catalog = CatalogFn(|name: &str| {
            (name == "adder").then(|| {
                (InstrumentedOp::build(OP_SRC, "op", &BuildOptions::default()).unwrap(), vec![])
            })
        });
        // A stale shard count is overridden by the pinned layout.
        let mut fleet =
            Fleet::recover(&dir, FleetConfig { shards: 7, ..config }, &catalog).unwrap();
        assert_eq!(fleet.shards().len(), 2);
        let rec = fleet.device(dev).unwrap();
        assert_eq!((rec.verified, rec.last_verified), (1, Some(0)));
        assert_eq!(fleet.session(sid).unwrap().state, SessionState::Verified);

        // The recovered fleet keeps serving: a fresh round verifies and
        // the nonce continues past the pre-restart history.
        let op = InstrumentedOp::build(OP_SRC, "op", &BuildOptions::default()).unwrap();
        let mut device = DialedDevice::new(op, fleet.device_keystore(dev).unwrap());
        let chal = fleet.issue(dev, 10).unwrap();
        assert_eq!(chal.nonce, 1, "nonces continue after recovery");
        device.invoke(&[0; 8]);
        let proof = device.prove(&chal.challenge);
        fleet.submit(SessionId(chal.session), dev, proof, 11).unwrap();
        let (stats, _) = fleet.drain(12);
        assert_eq!(stats.verified, 1);
        assert_eq!(fleet.device(dev).unwrap().last_verified, Some(1));
    }
}
