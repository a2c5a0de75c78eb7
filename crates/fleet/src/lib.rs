//! The fleet attestation service — the server frontend of a DIALED
//! deployment.
//!
//! The lower crates prove and verify a *single* proof; this crate runs the
//! protocol at fleet scale, durably:
//!
//! ```text
//!                  ┌───────────────── [`Fleet`] ─────────────────┐
//!                  │  [`OpTable`]: ops + one verifier per op     │
//!                  │  route: id mod N → shard                    │
//!                  └──────┬───────────────┬──────────────┬───────┘
//!                  ┌──────▼─────┐  ┌──────▼─────┐  ┌─────▼──────┐
//!                  │ [`Shard`] 0│  │ [`Shard`] 1│  │ [`Shard`] N│
//!                  │ registry   │  │            │  │            │
//!                  │ sessions   │  │    …       │  │    …       │
//!                  │ ingest     │  │            │  │            │
//!                  │ workspaces │  │            │  │            │
//!                  ├────────────┤  ├────────────┤  ├────────────┤
//!                  │ WAL        │  │ WAL        │  │ WAL        │
//!                  └────────────┘  └────────────┘  └────────────┘
//! ```
//!
//! * [`registry`] — who exists: the fleet-global operation table
//!   (instrumented images + one verifier per operation) and per-shard device
//!   records (key seed and epoch, bound operation, last-verified counters;
//!   a device's key schedule is derived on its first challenge).
//! * [`session`] — challenge lifecycle: (boot epoch, counter) nonces, the
//!   `Issued → Submitted → Verified/Rejected/Expired` state machine,
//!   deadline expiry, duplicate- and replay-rejection *before* any
//!   cryptographic work.
//! * [`wire`] — the versioned, length-prefixed binary codec for every
//!   protocol message; all decode paths are total.
//! * [`ingest`] — each shard's pending-submission queue, drained in
//!   per-operation batches through that operation's verifier, on a warm
//!   workspace the shard keeps per operation.
//! * [`store`] — durable [`StateEvent`]s and the write-ahead log.
//! * [`shard`] — the shard state machine tying the above together; a
//!   device and its sessions live on shard `id mod N`.
//!
//! # Durability
//!
//! Durable state changes are events: appended to the owning shard's WAL
//! (or the fleet's meta log), then applied. [`Fleet::recover`] replays
//! each shard's log, which compaction rewrites as events, through the
//! *same* apply path. What survives a crash is
//! what the guarantees in [`store`] need: the registry, keys and epochs,
//! every verdict a drain returned with its device's counters, and a boot
//! epoch per shard that keeps nonces fresh, so `issue` and `submit` write
//! nothing. Sessions still open at a crash are forgotten. A fleet built
//! with [`Fleet::new`] keeps everything in memory (tests, experiments);
//! [`Fleet::durable`] adds the log.
//!
//! Shards share no mutable state, and the verifiers in the [`OpTable`]
//! are borrowed read-only by every drain, so shards drain on different
//! threads without locks. [`Fleet::verify_pending`] is the one
//! place a drain goes parallel: a pass too light to repay a thread spawn
//! drains inline, a heavier one spreads whole shards over at most
//! [`FleetConfig::workers`] threads. Verifiers themselves never spawn.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ingest;
pub mod net;
pub mod registry;
pub mod session;
pub mod shard;
pub mod store;
pub mod wire;

pub use ingest::{DrainStats, IngestQueue};
pub use net::{NetClient, NetConfig, NetServer, NetServerHandle, NetStats};
pub use registry::{DeviceId, DeviceRecord, OpId, OpRecord, OpTable, Registry, RegistryError};
pub use session::{Session, SessionError, SessionId, SessionManager, SessionState};
pub use shard::Shard;
pub use store::{RecoverError, StateEvent};
pub use wire::{
    ChallengeMsg, FrameReader, GrantMsg, IssueMsg, Message, ProofMsg, RejectMsg, ReportMsg,
    SubmitMsg, VerdictMsg, WireError,
};

use crate::shard::ShardParams;
use crate::store::Wal;
use crate::wire::PackedProof;
use dialed::attest::DialedProof;
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
    /// Threads one drain may use (`None` = one per core). A drain spreads
    /// whole shards over its threads, so it never uses more threads than
    /// it has busy shards.
    pub workers: Option<usize>,
    /// State shards. Shards are the unit of drain parallelism: a shard's
    /// queue drains on one thread, so a drain runs on at most this many.
    /// A single-shard fleet therefore verifies on one thread — a
    /// deliberate trade: a proof costs 0.5–50 µs, and splitting one
    /// shard's batches across threads would need a second, batch-level
    /// scheduler for a layout no deployment here uses. Pinned at first
    /// creation for durable fleets: recovery uses the shard count from the
    /// meta log, not this field, because re-sharding would re-route
    /// devices away from their logged state.
    pub shards: usize,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            label: b"dialed-fleet".to_vec(),
            challenge_ttl: 64,
            replay_window: 32,
            workers: None,
            shards: 4,
        }
    }
}

impl FleetConfig {
    /// [`workers`](Self::workers) resolved to a thread count.
    fn max_drain_threads(&self) -> usize {
        self.workers
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, usize::from))
            .max(1)
    }

    fn shard_params(&self) -> ShardParams {
        ShardParams {
            label: self.label.clone(),
            ttl: self.challenge_ttl,
            window_cap: self.replay_window,
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

/// The attestation service: `N` durable state shards sharing one
/// operation table, shard `s` owning the devices and sessions whose id is
/// `s mod N`.
#[derive(Debug)]
pub struct Fleet {
    ops: OpTable,
    shards: Vec<Shard>,
    /// Next fleet-global device id.
    next_device: u64,
    /// Current provisioning-key epoch.
    epoch: u64,
    /// Fleet-level event log (layout, operations, epoch bumps).
    meta: Option<Wal>,
    /// Most threads one drain may use, resolved from
    /// [`FleetConfig::workers`] once.
    max_drain_threads: usize,
}

impl Fleet {
    /// An in-memory fleet (no durability) with the given tunables.
    #[must_use]
    pub fn new(config: FleetConfig) -> Self {
        let n = config.shards.max(1);
        let params = config.shard_params();
        Self {
            ops: OpTable::new(),
            shards: (0..n).map(|i| Shard::in_memory(i, n as u64, &params)).collect(),
            next_device: 0,
            epoch: 0,
            meta: None,
            max_drain_threads: config.max_drain_threads(),
        }
    }

    /// A durable fleet writing its logs under `dir` (created if
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
    /// operations via `catalog`, epoch), then each shard's newest WAL
    /// segment through the same apply path live mutations use, and starts
    /// each shard's next boot epoch. The shard count, every device and its
    /// counters, and every resolved session not yet pruned come back
    /// exactly as committed; open sessions and anti-replay windows do not.
    /// Corrupt or torn log tails are dropped, never panicked on.
    ///
    /// # Errors
    ///
    /// [`RecoverError::MissingLayout`] if the meta log exists but pins no
    /// shard layout, [`RecoverError::UnknownOp`] if the catalog cannot
    /// rebuild a logged operation, [`RecoverError::Format`] if a log is of
    /// another format version, or an I/O failure.
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
        let (events, meta_len) = store::read_events(&meta_path)?;
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
                    let got = ops.register_op(name, image, policies);
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

        // Derived fleet-level counters: the next device id clears every id
        // any shard ever installed, and per-op device counts are
        // recomputed from the recovered registries.
        let mut next_device = 0;
        for shard in &shards {
            next_device = next_device.max(shard.registry.next_device);
            for d in shard.registry().devices() {
                if let Ok(rec) = ops.op_mut(d.op) {
                    rec.devices += 1;
                }
            }
        }

        let mut meta = Wal::open(&meta_path, meta_len)?;
        if fresh {
            meta.append(&StateEvent::ShardLayout { shards: n as u32 })?;
        }
        Ok(Self {
            ops,
            shards,
            next_device,
            epoch,
            meta: Some(meta),
            max_drain_threads: config.max_drain_threads(),
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
        let id = self.ops.register_op(name, op, policies);
        let mode = self.ops.op(id).expect("just registered").mode;
        self.meta_commit(&StateEvent::OpRegistered { op: id, name: name.to_string(), mode });
        id
    }

    /// Registers a device bound to `op` with its provisioning key seed.
    /// The effective key mixes the seed with the current provisioning
    /// epoch (see [`Fleet::rotate_provisioning_epoch`]); the id is
    /// fleet-global and the record lands on shard `id mod N`.
    ///
    /// # Errors
    ///
    /// Fails if `op` is unknown.
    pub fn register_device(&mut self, op: OpId, key_seed: u64) -> Result<DeviceId, RegistryError> {
        self.ops.op(op)?;
        let device = DeviceId(self.next_device);
        self.next_device += 1;
        let epoch = self.epoch;
        let idx = self.shard_of(device.0);
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
        let idx = self.shard_of(device.0);
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
        epoch
    }

    /// The attestation key a registered device was provisioned with (the
    /// device side of a simulation installs the same key).
    ///
    /// # Errors
    ///
    /// Fails if the device is unknown.
    pub fn device_keystore(&self, device: DeviceId) -> Result<KeyStore, RegistryError> {
        Ok(self.device(device)?.keystore())
    }

    /// Issues a challenge to `device` at logical time `now`, returning the
    /// wire-ready challenge message. Writes nothing: the nonce is the
    /// shard's (boot epoch, counter) pair, fresh across crashes without a
    /// log record. A device's first challenge since boot derives its key
    /// schedule (see [`registry`]), so only devices that attest hold one.
    ///
    /// # Errors
    ///
    /// Fails if the device is unknown.
    pub fn issue(&mut self, device: DeviceId, now: u64) -> Result<ChallengeMsg, RegistryError> {
        let idx = self.shard_of(device.0);
        let shard = &mut self.shards[idx];
        let rec = shard.registry.device(device)?;
        let s = shard.sessions.issue(device, rec.op, now);
        let msg = ChallengeMsg {
            session: s.id.0,
            device: device.0,
            nonce: s.nonce,
            deadline: s.deadline,
            challenge: s.challenge,
        };
        shard.sessions.derive_keys(device, || rec.keystore());
        Ok(msg)
    }

    /// The shard owning the device or session `id`: of `N` shards,
    /// device `d` lives on shard `d mod N`, and shard `s` mints session ids
    /// `s, s+N, s+2N, …`.
    fn shard_of(&self, id: u64) -> usize {
        (id % self.shards.len() as u64) as usize
    }

    /// Accepts a device's proof for a session and queues it on the
    /// session's shard. Writes nothing: a crash before the drain forgets
    /// the submission, and the device re-attests under a fresh challenge.
    /// On error nothing reaches the verifier (duplicates and replays die
    /// here).
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
        self.submit_packed(session, device, PackedProof::pack(&proof.pox), now)
    }

    /// [`Fleet::submit`] for a proof in the packed form a session holds.
    fn submit_packed(
        &mut self,
        session: SessionId,
        device: DeviceId,
        proof: PackedProof,
        now: u64,
    ) -> Result<(), SessionError> {
        let idx = self.shard_of(session.0);
        let shard = &mut self.shards[idx];
        let op = shard.sessions.submit_packed(session, device, proof, now)?;
        shard.ingest.enqueue(op, session);
        Ok(())
    }

    /// [`Fleet::submit`] from an encoded [`ProofMsg`] frame, as received
    /// off the network. The proof is decoded straight into the packed form
    /// its session holds, so its output region is never built here.
    ///
    /// # Errors
    ///
    /// `Err(Ok(session_error))` for session-layer rejection,
    /// `Err(Err(wire_error))` for undecodable bytes (including non-proof
    /// messages), the same error [`wire::decode`] gives for them.
    pub fn submit_wire(&mut self, bytes: &[u8], now: u64) -> SubmitWireResult {
        let (session, device, proof) = match wire::decode_packed_proof(bytes, wire::TAG_PROOF) {
            Ok(Some((_, session, device, proof))) => (SessionId(session), DeviceId(device), proof),
            Ok(None) => {
                return Err(Err(match wire::decode(bytes) {
                    Ok(_) => WireError::UnexpectedMessage { expected: "proof" },
                    Err(e) => e,
                }))
            }
            Err(e) => return Err(Err(e)),
        };
        match self.submit_packed(session, device, proof, now) {
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
    /// `Expired`, returning how many flipped. Touches only the sessions
    /// whose deadline has passed; a frontend runs it on a clock, not per
    /// submission.
    pub fn expire(&mut self, now: u64) -> usize {
        self.shards.iter_mut().map(|s| s.sessions.expire_due(now)).sum()
    }

    /// Verifies every queued submission through its operation's verifier,
    /// feeding verdicts back into sessions and registries, and appends the
    /// id of each session it settled to `settled` — so a frontend replies
    /// for exactly those without scanning its table of outstanding
    /// requests. Touches only the queued sessions.
    ///
    /// The one place a drain goes parallel. Each queued submission is
    /// weighted by its operation's mode (a Full-mode re-execution or a
    /// PoX-only MAC check); a pass lighter than [`PARALLEL_MIN_WORK_NS`]
    /// drains its busy shards one after the other on the calling thread.
    /// A heavier one hands them out, heaviest first, to the least-loaded of
    /// at most [`FleetConfig::workers`] threads (never more than there are
    /// busy shards) — the caller plus scoped ones — and each drains its
    /// shards one after the other. [`DrainStats::threads`] says how many
    /// the pass ran on. Shards share no mutable state and the verifiers
    /// take `&self`; each shard commits its own verdicts in the same order
    /// either way.
    pub fn verify_pending(&mut self, settled: &mut Vec<SessionId>) -> DrainStats {
        let ops = &self.ops;
        let work = self.shards.iter().map(|s| s.pending_work(ops)).sum();
        let busy = self.shards.iter().filter(|s| s.pending() > 0).count();
        let threads = drain_threads(work, busy, self.max_drain_threads);
        let mut stats = DrainStats { threads, ..DrainStats::default() };
        if threads == 1 {
            for shard in &mut self.shards {
                stats.merge(shard.drain(ops, settled));
            }
            return stats;
        }
        // Heaviest shard first, each to the least-loaded thread; the first
        // group drains on the caller, so one thread fewer is spawned.
        let mut busy: Vec<(u64, &mut Shard)> = self
            .shards
            .iter_mut()
            .filter(|s| s.pending() > 0)
            .map(|s| (s.pending_work(ops), s))
            .collect();
        busy.sort_by_key(|&(w, _)| std::cmp::Reverse(w));
        let mut groups: Vec<(u64, Vec<&mut Shard>)> =
            (0..threads).map(|_| (0, Vec::new())).collect();
        for (w, shard) in busy {
            let least = groups.iter_mut().min_by_key(|(load, _)| *load).expect("threads > 1");
            least.0 += w;
            least.1.push(shard);
        }
        let drain_all = |shards: Vec<&mut Shard>, settled: &mut Vec<SessionId>| {
            let mut stats = DrainStats::default();
            for shard in shards {
                stats.merge(shard.drain(ops, settled));
            }
            stats
        };
        let mut groups = groups.into_iter().map(|(_, shards)| shards);
        let mine = groups.next().expect("threads > 1");
        std::thread::scope(|scope| {
            let others: Vec<_> = groups
                .map(|shards| {
                    scope.spawn(move || {
                        let mut ids = Vec::new();
                        (drain_all(shards, &mut ids), ids)
                    })
                })
                .collect();
            stats.merge(drain_all(mine, settled));
            for handle in others {
                let (other, mut ids) = handle.join().expect("shard drain panicked");
                stats.merge(other);
                settled.append(&mut ids);
            }
        });
        stats
    }

    /// Pending (submitted, not yet drained) sessions across all shards.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.shards.iter().map(Shard::pending).sum()
    }

    /// Ingest queue depth of the shard that owns `session`. This is the
    /// backpressure signal: a frontend compares it against its shed
    /// watermark before accepting a submission and answers
    /// [`Overloaded`](dialed::report::RejectReason::Overloaded) instead of
    /// queueing work it cannot verify in time.
    #[must_use]
    pub fn ingest_depth_of(&self, session: SessionId) -> usize {
        self.shards[self.shard_of(session.0)].pending()
    }

    /// Evicts resolved sessions whose deadline lies before `now` so a
    /// long-running service's memory tracks open rounds, not history (see
    /// [`SessionManager::prune_resolved`]).
    pub fn prune_resolved(&mut self, now: u64) -> usize {
        self.shards.iter_mut().map(|s| s.prune(now)).sum()
    }

    /// Forces a compaction on every shard: each rewrites its log as the
    /// events that rebuild its state. They also happen automatically (see
    /// [`shard`]'s durability layout). A no-op for in-memory fleets.
    ///
    /// # Errors
    ///
    /// Propagates the first file-system error.
    pub fn snapshot(&mut self) -> io::Result<()> {
        for shard in &mut self.shards {
            shard.compact()?;
        }
        Ok(())
    }

    /// Looks up a session.
    #[must_use]
    pub fn session(&self, id: SessionId) -> Option<&Session> {
        self.shards[self.shard_of(id.0)].sessions().session(id)
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
        self.shards[self.shard_of(id.0)].registry().device(id)
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
}

/// Least estimated verification work, in nanoseconds, a verify pass must
/// carry before [`Fleet::verify_pending`] spreads it over threads. A
/// measured constant, not a knob (`par_probe`, 2-vCPU reference box, two
/// runs): the two vCPUs run at once (an ALU loop takes 0.102–0.112 s alone
/// and each thread of a pair 1.00–1.03× that; warm Full-mode `verify_in`
/// 1.17–1.24×), and `thread::scope` with one spawned thread costs 28–30 µs
/// to start and join (two: 48–55 µs). A second thread saves at most half
/// of a pass, so it pays from ≈ 2 × 30 µs of work: about three Full-mode
/// proofs, or 128 PoX-only ones (see [`OpRecord::proof_cost_ns`]).
pub const PARALLEL_MIN_WORK_NS: u64 = 64_000;

/// How many threads a verify pass of `work` estimated nanoseconds over
/// `busy` shards runs on, given at most `max` — the one function that
/// decides it. A shard drains on one thread, so never more than `busy`.
fn drain_threads(work: u64, busy: usize, max: usize) -> usize {
    if work < PARALLEL_MIN_WORK_NS {
        1
    } else {
        max.min(busy).max(1)
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
        assert_eq!(stats.batches, 2, "two ops ⇒ two batches");
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
        let report = dialed::report::Report::rejected(err.unwrap());
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
        assert_eq!(fleet.epoch, 0);
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

        // The recovered fleet keeps serving: a fresh round verifies, and
        // its nonce is the first of boot epoch 1, above every nonce epoch 0
        // issued.
        let op = InstrumentedOp::build(OP_SRC, "op", &BuildOptions::default()).unwrap();
        let mut device = DialedDevice::new(op, fleet.device_keystore(dev).unwrap());
        let chal = fleet.issue(dev, 10).unwrap();
        assert_eq!(chal.nonce, 1 << session::EPOCH_SHIFT, "nonces restart above the old ones");
        device.invoke(&[0; 8]);
        let proof = device.prove(&chal.challenge);
        fleet.submit(SessionId(chal.session), dev, proof, 11).unwrap();
        let (stats, _) = fleet.drain(12);
        assert_eq!(stats.verified, 1);
        assert_eq!(fleet.device(dev).unwrap().last_verified, Some(chal.nonce));
    }

    /// Checks that device `d` lives on shard `d mod n`, with `per_shard`
    /// devices on each, and that the sessions issued to it are minted and
    /// found there, with ids `≡ d (mod n)`.
    fn assert_routed_by_id(fleet: &mut Fleet, n: usize, per_shard: usize) {
        assert_eq!(fleet.shards().len(), n);
        for (s, shard) in fleet.shards().iter().enumerate() {
            let ids: Vec<u64> = shard.registry().devices().map(|d| d.id.0).collect();
            assert_eq!(ids.len(), per_shard, "{n} shards: shard {s} holds {ids:?}");
            assert!(ids.iter().all(|&d| d % n as u64 == s as u64), "{n} shards: {s} {ids:?}");
        }
        let devices: Vec<DeviceId> = fleet.devices().map(|d| d.id).collect();
        for d in devices {
            for now in 0..2 {
                let sid = SessionId(fleet.issue(d, now).unwrap().session);
                assert_eq!(sid.0 % n as u64, d.0 % n as u64, "{n} shards: {d} got {sid}");
                let home = &fleet.shards()[d.0 as usize % n];
                assert_eq!(home.sessions().session(sid).map(|s| s.device), Some(d));
            }
        }
    }

    #[test]
    fn devices_and_their_sessions_route_by_id() {
        let build = || InstrumentedOp::build(OP_SRC, "op", &BuildOptions::default()).unwrap();
        let catalog = CatalogFn(|name: &str| (name == "adder").then(|| (build(), vec![])));
        let per_shard = 4;
        for n in [1, 3, 4] {
            let config = FleetConfig { shards: n, workers: Some(1), ..FleetConfig::default() };
            let dir = tmp_dir(&format!("routing-{n}"));
            let mut memory = Fleet::new(config.clone());
            let mut durable = Fleet::durable(&dir, config.clone()).unwrap();
            for fleet in [&mut memory, &mut durable] {
                let op_id = fleet.register_op("adder", build(), vec![]);
                for seed in 0..(n * per_shard) as u64 {
                    fleet.register_device(op_id, seed).unwrap();
                }
                assert_routed_by_id(fleet, n, per_shard);
            }
            drop(durable);
            let mut recovered = Fleet::recover(&dir, config, &catalog).unwrap();
            assert_routed_by_id(&mut recovered, n, per_shard);
        }
    }

    #[test]
    fn each_device_is_found_on_exactly_one_shard() {
        let mut fleet =
            Fleet::new(FleetConfig { shards: 4, workers: Some(1), ..FleetConfig::default() });
        let op = InstrumentedOp::build(OP_SRC, "op", &BuildOptions::default()).unwrap();
        let op_id = fleet.register_op("adder", op, vec![]);
        for seed in 0..23 {
            fleet.register_device(op_id, seed).unwrap();
        }
        fleet.deregister_device(DeviceId(9)).unwrap();
        // Every shard is asked about every id, as a per-shard census does.
        let homes = |id: u64| -> Vec<usize> {
            let shards = fleet.shards().iter().enumerate();
            shards
                .filter(|(_, s)| s.registry().device(DeviceId(id)).is_ok())
                .map(|(i, _)| i)
                .collect()
        };
        for id in 0..40 {
            let want: Vec<usize> = if id < 23 && id != 9 { vec![id as usize % 4] } else { vec![] };
            assert_eq!(homes(id), want, "{}", DeviceId(id));
        }
        assert_eq!(fleet.shards().iter().map(|s| s.registry().len()).sum::<usize>(), 22);
    }

    /// Every file under `dir` with its length.
    fn file_lengths(dir: &Path) -> Vec<(PathBuf, u64)> {
        let mut files = Vec::new();
        let mut stack = vec![dir.to_path_buf()];
        while let Some(d) = stack.pop() {
            for entry in std::fs::read_dir(&d).unwrap().flatten() {
                let meta = entry.metadata().unwrap();
                if meta.is_dir() {
                    stack.push(entry.path());
                } else {
                    files.push((entry.path(), meta.len()));
                }
            }
        }
        files.sort();
        files
    }

    #[test]
    fn durable_issue_and_submit_write_nothing() {
        let dir = tmp_dir("no-writes");
        let config = FleetConfig { workers: Some(1), shards: 2, ..FleetConfig::default() };
        let mut fleet = Fleet::durable(&dir, config).unwrap();
        let op = InstrumentedOp::build(OP_SRC, "op", &BuildOptions::default()).unwrap();
        let op_id = fleet.register_op("adder", op.clone(), vec![]);
        let devs: Vec<_> = (0..4).map(|seed| fleet.register_device(op_id, seed).unwrap()).collect();
        let before = file_lengths(&dir);
        for (i, &dev) in devs.iter().enumerate() {
            let mut device = DialedDevice::new(op.clone(), fleet.device_keystore(dev).unwrap());
            device.invoke(&[0; 8]);
            let chal = fleet.issue(dev, 0).unwrap();
            let proof = device.prove(&chal.challenge);
            if i % 2 == 0 {
                fleet.submit(SessionId(chal.session), dev, proof, 1).unwrap();
            } else {
                let msg = ProofMsg { session: chal.session, device: dev.0, proof };
                let frame = wire::encode(&Message::Proof(msg));
                fleet.submit_wire(&frame, 1).unwrap();
                // A rejected duplicate writes nothing either.
                assert!(fleet.submit_wire(&frame, 1).is_err());
            }
        }
        assert_eq!(file_lengths(&dir), before, "issue and submit must not write");
        assert_eq!(fleet.verify_pending(&mut Vec::new()).verified, devs.len());
        assert_ne!(file_lengths(&dir), before, "a drain logs its verdicts");
    }

    /// A WAL file whose records carry event-format `version`.
    fn log_of_version(events: &[StateEvent], version: u8) -> Vec<u8> {
        let mut bytes = [&store::WAL_MAGIC[..], &[store::WAL_VERSION]].concat();
        for ev in events {
            let mut payload = store::encode_event(ev);
            payload[0] = version;
            bytes.extend((payload.len() as u32).to_le_bytes());
            bytes.extend(store::record_sum(&payload).to_le_bytes());
            bytes.extend(payload);
        }
        bytes
    }

    /// Recovers `dir` expecting a `Format` error naming `file` and version
    /// `version`; returns the version the error says this build reads.
    fn refused_as(dir: &Path, file: &str, version: u8) -> u8 {
        let config = FleetConfig { shards: 1, ..FleetConfig::default() };
        match Fleet::recover(dir, config, &CatalogFn(|_: &str| None)) {
            Err(RecoverError::Format { file: f, found, expected }) if found == version => {
                assert_eq!(f, dir.join(file));
                expected
            }
            other => panic!("{file}: expected a format error, got {other:?}"),
        }
    }

    /// A fresh one-shard durable directory (current format throughout).
    fn fresh_durable(name: &str) -> PathBuf {
        let dir = tmp_dir(name);
        drop(Fleet::durable(&dir, FleetConfig { shards: 1, ..FleetConfig::default() }).unwrap());
        dir
    }

    #[test]
    fn v1_meta_log_is_refused_not_recovered_empty() {
        let dir = fresh_durable("v1-meta");
        let v1 = log_of_version(&[StateEvent::ShardLayout { shards: 1 }], 1);
        std::fs::write(dir.join("meta.log"), v1).unwrap();
        assert_eq!(refused_as(&dir, "meta.log", 1), store::EVENT_VERSION);
    }

    #[test]
    fn v1_shard_segment_is_refused_not_recovered_empty() {
        let dir = fresh_durable("v1-segment");
        let ev = StateEvent::DeviceRegistered {
            device: DeviceId(0),
            op: OpId(0),
            key_seed: 1,
            epoch: 0,
        };
        std::fs::write(dir.join("shard-0").join("wal-0.log"), log_of_version(&[ev], 1)).unwrap();
        assert_eq!(refused_as(&dir, "shard-0/wal-0.log", 1), store::EVENT_VERSION);
    }

    #[test]
    fn parent_header_only_segment_is_refused() {
        // A WAL-v1 directory kept a snapshot file beside its segment, and
        // right after a snapshot the segment held only its header. Read
        // without that snapshot, it would recover as the empty state.
        let dir = fresh_durable("v1-header-only");
        let v1 = [&store::WAL_MAGIC[..], &[1]].concat();
        std::fs::write(dir.join("shard-0").join("wal-3.log"), v1).unwrap();
        assert_eq!(refused_as(&dir, "shard-0/wal-3.log", 1), store::WAL_VERSION);
    }

    #[test]
    fn wal_v2_meta_log_is_refused() {
        // A WAL-v2 directory placed devices by a hash ring; read as version
        // 3, each shard would recover devices it no longer owns.
        let dir = fresh_durable("wal-v2-meta");
        let mut v2 = log_of_version(&[StateEvent::ShardLayout { shards: 1 }], store::EVENT_VERSION);
        v2[store::WAL_MAGIC.len()] = 2;
        std::fs::write(dir.join("meta.log"), v2).unwrap();
        assert_eq!(refused_as(&dir, "meta.log", 2), store::WAL_VERSION);
    }

    #[test]
    fn v2_segment_is_refused() {
        // Version 2 logged every issue and accepted proof; read as version
        // 3, its nonces would restart at boot epoch 0.
        let dir = fresh_durable("v2-segment");
        let ev = StateEvent::DeviceRegistered {
            device: DeviceId(0),
            op: OpId(0),
            key_seed: 1,
            epoch: 0,
        };
        std::fs::write(dir.join("shard-0").join("wal-0.log"), log_of_version(&[ev], 2)).unwrap();
        assert_eq!(refused_as(&dir, "shard-0/wal-0.log", 2), store::EVENT_VERSION);
    }

    /// Key schedules are derived on a device's first challenge, not at
    /// registration or recovery.
    mod deferred_keys {
        use super::*;
        use crate::registry::effective_seed;
        use vrased::{Challenge, RaVerifier, SwAtt};

        fn catalog() -> impl OpCatalog {
            CatalogFn(|name: &str| {
                (name == "adder").then(|| {
                    (InstrumentedOp::build(OP_SRC, "op", &BuildOptions::default()).unwrap(), vec![])
                })
            })
        }

        /// The key schedule `dev`'s shard holds for it since boot.
        fn schedule(fleet: &Fleet, dev: DeviceId) -> Option<&RaVerifier> {
            fleet.shards[fleet.shard_of(dev.0)].sessions.device_state(dev)?.ra.as_ref()
        }

        /// Runs `device` and submits its proof for a fresh challenge to
        /// `dev`, then drains: the session's verdict.
        fn attest(fleet: &mut Fleet, dev: DeviceId, device: &mut DialedDevice) -> Verdict {
            let chal = fleet.issue(dev, 0).unwrap();
            device.invoke(&[0; 8]);
            let proof = device.prove(&chal.challenge);
            fleet.submit(SessionId(chal.session), dev, proof, 1).unwrap();
            fleet.drain(2);
            let s = fleet.session(SessionId(chal.session)).unwrap();
            s.report.as_ref().unwrap().verdict
        }

        #[test]
        fn registration_and_recovery_derive_no_schedule() {
            let dir = tmp_dir("deferred-recover");
            let config = FleetConfig { workers: Some(1), shards: 3, ..FleetConfig::default() };
            {
                let mut fleet = Fleet::durable(&dir, config.clone()).unwrap();
                let op = InstrumentedOp::build(OP_SRC, "op", &BuildOptions::default()).unwrap();
                let op_id = fleet.register_op("adder", op, vec![]);
                for seed in 0..9 {
                    fleet.register_device(op_id, seed).unwrap();
                }
                assert!(
                    fleet.devices().all(|d| schedule(&fleet, d.id).is_none()),
                    "registration derived a key"
                );
                fleet.issue(DeviceId(4), 0).unwrap();
            }
            let fleet = Fleet::recover(&dir, config, &catalog()).unwrap();
            assert_eq!(fleet.devices().count(), 9);
            assert!(
                fleet.devices().all(|d| schedule(&fleet, d.id).is_none()),
                "recovery derived a key"
            );
        }

        #[test]
        fn the_first_issue_derives_the_schedule_and_later_ones_keep_it() {
            let (mut fleet, op_id) = full_fleet();
            let (dev, idle) = (
                fleet.register_device(op_id, 7).unwrap(),
                fleet.register_device(op_id, 8).unwrap(),
            );
            fleet.issue(dev, 0).unwrap();
            let first: *const RaVerifier = schedule(&fleet, dev).expect("derived");
            fleet.issue(dev, 1).unwrap();
            let second: *const RaVerifier = schedule(&fleet, dev).unwrap();
            assert!(std::ptr::eq(first, second), "a second issue re-derived the schedule");
            assert!(schedule(&fleet, idle).is_none(), "only the issued device has one");
        }

        #[test]
        fn a_rotated_device_recovered_from_disk_verifies_on_its_first_issue() {
            let dir = tmp_dir("deferred-rotated");
            let config = FleetConfig { workers: Some(1), shards: 2, ..FleetConfig::default() };
            let dev = {
                let mut fleet = Fleet::durable(&dir, config.clone()).unwrap();
                let op = InstrumentedOp::build(OP_SRC, "op", &BuildOptions::default()).unwrap();
                let op_id = fleet.register_op("adder", op, vec![]);
                fleet.rotate_provisioning_epoch();
                fleet.register_device(op_id, 60).unwrap()
            };
            let mut fleet = Fleet::recover(&dir, config, &catalog()).unwrap();
            assert_eq!(fleet.device(dev).unwrap().epoch(), 1);
            assert!(schedule(&fleet, dev).is_none());
            let op = InstrumentedOp::build(OP_SRC, "op", &BuildOptions::default()).unwrap();
            let mut honest = DialedDevice::new(op.clone(), fleet.device_keystore(dev).unwrap());
            assert_eq!(attest(&mut fleet, dev, &mut honest), Verdict::Clean);
            // The same seed's epoch-0 key no longer satisfies it.
            let mut stale = DialedDevice::new(op, KeyStore::from_seed(effective_seed(60, 0)));
            assert_ne!(attest(&mut fleet, dev, &mut stale), Verdict::Clean);
        }

        #[test]
        fn device_keystore_macs_as_the_provisioning_key() {
            let (mut fleet, op_id) = full_fleet();
            let mut devices = vec![(fleet.register_device(op_id, 3).unwrap(), 3, 0)];
            fleet.rotate_provisioning_epoch();
            fleet.rotate_provisioning_epoch();
            devices.push((fleet.register_device(op_id, 3).unwrap(), 3, 2));
            devices.push((fleet.register_device(op_id, u64::MAX).unwrap(), u64::MAX, 2));
            let chal = Challenge::derive(b"deferred-keys", 5);
            let regions: &[(u16, u16, &[u8])] = &[(0x10, 0x13, &[1, 2, 3, 4])];
            let mac = |ks: KeyStore| SwAtt::new(ks).attest_region_bytes(&chal, regions, b"x");
            for (dev, seed, epoch) in devices {
                let want = mac(KeyStore::from_seed(effective_seed(seed, epoch)));
                assert_eq!(mac(fleet.device_keystore(dev).unwrap()), want, "{dev}");
                fleet.issue(dev, 0).unwrap();
                let ra = schedule(&fleet, dev).unwrap();
                assert!(ra.check_region_bytes(&chal, regions, b"x", &want), "{dev}");
            }
        }

        #[test]
        fn deregistration_frees_the_devices_session_state() {
            let (mut fleet, op_id) = full_fleet();
            let dev = fleet.register_device(op_id, 5).unwrap();
            let op = InstrumentedOp::build(OP_SRC, "op", &BuildOptions::default()).unwrap();
            let mut honest = DialedDevice::new(op, fleet.device_keystore(dev).unwrap());
            assert_eq!(attest(&mut fleet, dev, &mut honest), Verdict::Clean);
            let shard = fleet.shard_of(dev.0);
            assert!(fleet.shards[shard].sessions.device_state(dev).is_some());
            fleet.deregister_device(dev).unwrap();
            assert!(
                fleet.shards[shard].sessions.device_state(dev).is_none(),
                "a deregistered device keeps its nonce, replay window and key schedule"
            );
        }
    }
}
