//! State shards and the consistent-hash ring that routes devices to them.
//!
//! A [`Shard`] owns one slice of the fleet's mutable state — a device
//! [`Registry`], a [`SessionManager`] minting strided session ids, and an
//! [`IngestQueue`] — plus, in durable mode, its own write-ahead-log
//! segment and snapshot file. Shards share **nothing** mutable: a drain
//! borrows the fleet-global [`OpTable`] read-only (batch engines take
//! `&self`), so N shards drain on N threads with no cross-shard locking.
//!
//! Routing is consistent hashing by [`DeviceId`]: each shard projects a
//! fixed set of virtual nodes onto a hash ring and a device belongs to
//! the shard owning the first point at or clockwise of the device's hash.
//! The placement depends only on `(device, shard count)` — it is stable
//! across restarts, which is what lets each shard recover its own WAL
//! segment independently.
//!
//! # Durability layout
//!
//! ```text
//! <dir>/shard-<i>/snapshot.bin   atomic full-state snapshot, generation g
//! <dir>/shard-<i>/wal-<g>.log    events since that snapshot
//! ```
//!
//! Every `snapshot_every` committed events the shard writes a new
//! snapshot (tmp + rename, so readers never see a torn file), rotates to
//! a fresh WAL segment named for the new generation, and deletes stale
//! segments. Because segment names carry the generation, a crash between
//! "snapshot written" and "old segment deleted" cannot double-apply: a
//! snapshot at generation `g` replays only `wal-<g>.log`.

use crate::ingest::{DrainStats, IngestQueue};
use crate::registry::{DeviceId, OpId, OpTable, Registry};
use crate::session::{Session, SessionId, SessionManager, SessionState};
use crate::store::{
    read_events, write_atomic, RecoverError, StateEvent, Wal, WAL_MAGIC, WAL_VERSION,
};
use crate::wire::{
    decode_dialed_proof, decode_report_fields, encode_dialed_proof, encode_report_fields, Reader,
    WireError, Writer,
};
use dialed::report::Report;
use dialed::request::PerDevice;
use dialed::BatchJob;
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

/// Virtual nodes each shard projects onto the ring. More points smooth
/// the split of the device space between shards.
const VNODES_PER_SHARD: u32 = 64;

/// FNV-1a/64 — the ring's placement hash (stable, dependency-free; this
/// is load balancing, not cryptography).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// A consistent-hash ring mapping [`DeviceId`]s to shard indices.
#[derive(Clone, Debug)]
pub struct HashRing {
    /// `(point, shard)` pairs sorted by point.
    points: Vec<(u64, u32)>,
    shards: usize,
}

impl HashRing {
    /// A ring over `shards` shards (at least one).
    #[must_use]
    pub fn new(shards: usize) -> Self {
        let shards = shards.max(1);
        let mut points = Vec::with_capacity(shards * VNODES_PER_SHARD as usize);
        for shard in 0..shards as u32 {
            for vnode in 0..VNODES_PER_SHARD {
                let mut key = [0u8; 12];
                key[..4].copy_from_slice(&shard.to_le_bytes());
                key[4..8].copy_from_slice(&vnode.to_le_bytes());
                key[8..].copy_from_slice(b"ring");
                points.push((fnv1a64(&key), shard));
            }
        }
        points.sort_unstable();
        Self { points, shards }
    }

    /// Number of shards on the ring.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard `device` routes to: the owner of the first ring point at
    /// or clockwise of the device's hash.
    #[must_use]
    pub fn route(&self, device: DeviceId) -> usize {
        let h = fnv1a64(&device.0.to_le_bytes());
        let idx = self.points.partition_point(|&(p, _)| p < h);
        let (_, shard) = self.points[idx % self.points.len()];
        shard as usize
    }
}

/// The session-layer parameters every shard of one fleet shares.
#[derive(Clone, Debug)]
pub(crate) struct ShardParams {
    /// Fleet label challenges derive from.
    pub label: Vec<u8>,
    /// Session ttl in logical ticks.
    pub ttl: u64,
    /// Anti-replay window depth per device.
    pub window_cap: usize,
    /// Committed events between snapshots (durable mode).
    pub snapshot_every: usize,
}

/// One independent slice of fleet state. See the module docs.
#[derive(Debug)]
pub struct Shard {
    index: usize,
    pub(crate) registry: Registry,
    pub(crate) sessions: SessionManager,
    pub(crate) ingest: IngestQueue,
    wal: Option<Wal>,
    dir: Option<PathBuf>,
    generation: u64,
    events_since_snapshot: usize,
    snapshot_every: usize,
}

impl Shard {
    /// An in-memory shard (no durability).
    pub(crate) fn in_memory(index: usize, stride: u64, params: &ShardParams) -> Self {
        Self {
            index,
            registry: Registry::new(),
            sessions: SessionManager::with_ids(
                &params.label,
                params.ttl,
                params.window_cap,
                index as u64,
                stride,
            ),
            ingest: IngestQueue::new(),
            wal: None,
            dir: None,
            generation: 0,
            events_since_snapshot: 0,
            snapshot_every: params.snapshot_every,
        }
    }

    /// Opens (or creates) the durable shard at `dir`: loads the snapshot
    /// if one decodes, replays that generation's WAL segment through the
    /// same [`Shard::apply`] the live path uses, and reopens the segment
    /// for appending. A fresh directory recovers to the empty state, so
    /// creation and recovery are one code path.
    ///
    /// Corruption is handled by prefix: a torn or corrupt WAL tail is
    /// dropped (see [`read_events`]), and an undecodable snapshot —
    /// impossible under the atomic-write discipline, but possible under
    /// bit rot — degrades to the empty state plus whatever its segment
    /// replays, never a panic.
    ///
    /// # Errors
    ///
    /// Only genuine I/O failures are returned.
    pub(crate) fn recover(
        dir: &Path,
        index: usize,
        stride: u64,
        params: &ShardParams,
    ) -> Result<Self, RecoverError> {
        std::fs::create_dir_all(dir)?;
        let mut shard = Self::in_memory(index, stride, params);
        shard.dir = Some(dir.to_path_buf());

        if let Ok(bytes) = std::fs::read(dir.join("snapshot.bin")) {
            if let Ok(generation) = shard.load_snapshot(&bytes) {
                shard.generation = generation;
            }
        }
        let segment = dir.join(format!("wal-{}.log", shard.generation));
        for ev in read_events(&segment)? {
            shard.apply(ev);
        }
        shard.wal = Some(Wal::open(&segment)?);
        Ok(shard)
    }

    /// This shard's index within the fleet.
    #[must_use]
    pub fn index(&self) -> usize {
        self.index
    }

    /// This shard's device registry slice.
    #[must_use]
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// This shard's session manager.
    #[must_use]
    pub fn sessions(&self) -> &SessionManager {
        &self.sessions
    }

    /// Submissions queued on this shard, waiting for a drain.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.ingest.pending()
    }

    /// This shard's ingest queue depth (see [`IngestQueue::depth`]) — the
    /// signal a network frontend's load-shedding watermark reads.
    #[must_use]
    pub fn ingest_depth(&self) -> usize {
        self.ingest.depth()
    }

    /// Makes `ev` durable, then applies it. Fail-stop on a WAL append
    /// error: a mutation that cannot be persisted must not happen, or
    /// anti-replay state would silently regress at the next recovery.
    ///
    /// # Panics
    ///
    /// Panics if the WAL append fails (durable mode only).
    pub(crate) fn commit(&mut self, ev: StateEvent) {
        if let Some(wal) = &mut self.wal {
            wal.append(&ev).expect("WAL append failed: refusing to mutate non-durable state");
            self.events_since_snapshot += 1;
        }
        self.apply(ev);
        if self.wal.is_some() && self.events_since_snapshot >= self.snapshot_every.max(1) {
            // Snapshot failure is not fatal: the WAL segment keeps
            // growing and still replays the same state.
            let _ = self.snapshot();
        }
    }

    /// Applies one event to in-memory state — the single mutation path
    /// shared by live commits and recovery replay. Unknown references
    /// (e.g. a verdict for a pruned session) are ignored, which is what
    /// makes replay of a valid *prefix* safe.
    pub(crate) fn apply(&mut self, ev: StateEvent) {
        match ev {
            StateEvent::DeviceRegistered { device, op, key_seed, epoch } => {
                self.registry.install_device(device, op, key_seed, epoch);
            }
            StateEvent::DeviceDeregistered { device } => {
                let _ = self.registry.remove_device(device);
                for (op, sid) in self.sessions.expire_open_for(device) {
                    self.ingest.discard(op, sid);
                }
            }
            StateEvent::ChallengeIssued { session, device, op, nonce, issued_at, deadline } => {
                self.sessions.install(session, device, op, nonce, issued_at, deadline);
            }
            StateEvent::ProofAccepted { session, device, proof } => {
                let Some(op) = self.sessions.session(session).map(|s| s.op) else { return };
                self.sessions.apply_submit(session, device, proof);
                self.ingest.enqueue(op, session);
            }
            StateEvent::VerdictRecorded { session, report } => {
                let clean = report.is_clean();
                let op = self.sessions.session(session).map(|s| s.op);
                if let Some((device, nonce)) = self.sessions.apply_verdict(session, report) {
                    self.registry.record_verdict(device, nonce, clean);
                    if let Some(op) = op {
                        // Replay re-queues accepted proofs; the replayed
                        // verdict dequeues them again.
                        self.ingest.discard(op, session);
                    }
                }
            }
            StateEvent::ExpirySweep { now } => {
                self.sessions.expire_due(now);
            }
            StateEvent::PruneSweep { now } => {
                self.sessions.prune_resolved(now);
            }
            // Fleet-level events live in the meta log and never reach a
            // shard; ignoring them keeps replay total.
            StateEvent::ShardLayout { .. }
            | StateEvent::OpRegistered { .. }
            | StateEvent::EpochBumped { .. } => {}
        }
    }

    /// Runs an expiry sweep at `now` if any session is due, committing it
    /// as one durable event. Returns how many sessions expired.
    pub(crate) fn expire(&mut self, now: u64) -> usize {
        let due = self.sessions.due(now);
        if due > 0 {
            self.commit(StateEvent::ExpirySweep { now });
        }
        due
    }

    /// Prunes resolved sessions at `now` if any are prunable, committing
    /// one durable event. Returns how many sessions were evicted.
    pub(crate) fn prune(&mut self, now: u64) -> usize {
        let prunable = self.sessions.prunable(now);
        if prunable > 0 {
            self.commit(StateEvent::PruneSweep { now });
        }
        prunable
    }

    /// Drains this shard's queue through the fleet's shared operation
    /// engines, committing each verdict and appending every session it
    /// settled to `settled`. `ops` is borrowed read-only, so any number of
    /// shards drain concurrently.
    pub(crate) fn drain(&mut self, ops: &OpTable, settled: &mut Vec<SessionId>) -> DrainStats {
        let mut stats = DrainStats::default();
        for (op, sids) in self.ingest.take_all() {
            let Ok(record) = ops.op(op) else { continue };
            // Collect the batch: each job consumes its session's held
            // proof (the durable copy lives in the WAL).
            let mut jobs: Vec<BatchJob> = Vec::with_capacity(sids.len());
            let first = settled.len();
            for sid in sids {
                let Some(s) = self.sessions.session_mut(sid) else { continue };
                if s.state != SessionState::Submitted {
                    continue;
                }
                let Some(proof) = s.proof.take() else { continue };
                let (device, challenge) = (s.device, s.challenge);
                if self.registry.device(device).is_err() {
                    continue;
                }
                jobs.push(BatchJob::new(device.0, proof, challenge));
                settled.push(sid);
            }
            if jobs.is_empty() {
                continue;
            }
            let reports: Vec<Report> = {
                // Per-device keys resolve by borrow out of this shard's
                // registry for the whole batch.
                let reg = &self.registry;
                let keys = PerDevice::new(|device| Some(reg.device(DeviceId(device)).ok()?.ra()));
                let batch = record.engine.verify_batch(&jobs, Some(&keys));
                batch.outcomes.into_iter().map(|o| o.report).collect()
            };
            stats.batches += 1;
            for (&sid, report) in settled[first..].iter().zip(reports) {
                stats.drained += 1;
                if report.is_clean() {
                    stats.verified += 1;
                } else {
                    stats.rejected += 1;
                }
                self.commit(StateEvent::VerdictRecorded { session: sid, report });
            }
        }
        if stats.drained > 0 {
            stats.shards = 1;
        }
        stats
    }

    // -- snapshots ----------------------------------------------------------

    /// Writes a full-state snapshot, rotates to a fresh WAL segment named
    /// for the new generation, and deletes stale segments.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors; on failure the current segment
    /// stays authoritative.
    pub(crate) fn snapshot(&mut self) -> io::Result<()> {
        let Some(dir) = self.dir.clone() else { return Ok(()) };
        let next = self.generation + 1;
        write_atomic(&dir.join("snapshot.bin"), &self.encode_snapshot(next))?;
        self.wal = Some(Wal::open(&dir.join(format!("wal-{next}.log")))?);
        self.generation = next;
        self.events_since_snapshot = 0;
        // Older segments are now dead weight (their state is inside the
        // snapshot); sweep them, tolerating crash-left strays.
        if let Ok(entries) = std::fs::read_dir(&dir) {
            let keep = format!("wal-{next}.log");
            for entry in entries.flatten() {
                let name = entry.file_name();
                let name = name.to_string_lossy();
                if name.starts_with("wal-") && name.ends_with(".log") && name != keep {
                    let _ = std::fs::remove_file(entry.path());
                }
            }
        }
        Ok(())
    }

    fn encode_snapshot(&self, generation: u64) -> Vec<u8> {
        let mut w = Writer(Vec::new());
        w.bytes(&SNAP_MAGIC);
        w.u8(SNAP_VERSION);
        w.u64(generation);

        let devices: Vec<_> = self.registry.devices().collect();
        w.u64(devices.len() as u64);
        for d in devices {
            w.u64(d.id.0);
            w.u32(d.op.0);
            w.u64(d.key_seed);
            w.u64(d.epoch);
            match d.last_verified {
                Some(n) => {
                    w.u8(1);
                    w.u64(n);
                }
                None => w.u8(0),
            }
            w.u64(d.verified);
            w.u64(d.rejected);
        }

        w.u64(self.sessions.next_id);
        w.u64(self.sessions.sessions.len() as u64);
        for s in self.sessions.sessions.values() {
            w.u64(s.id.0);
            w.u64(s.device.0);
            w.u32(s.op.0);
            w.u64(s.nonce);
            w.u64(s.issued_at);
            w.u64(s.deadline);
            w.u8(encode_state(s.state));
            match &s.report {
                Some(r) => {
                    w.u8(1);
                    encode_report_fields(&mut w, r);
                }
                None => w.u8(0),
            }
            match &s.proof {
                Some(p) => {
                    w.u8(1);
                    encode_dialed_proof(&mut w, p);
                }
                None => w.u8(0),
            }
        }

        w.u64(self.sessions.per_device.len() as u64);
        let per: BTreeMap<u64, _> =
            self.sessions.per_device.iter().map(|(d, p)| (d.0, p)).collect();
        for (device, per) in per {
            w.u64(device);
            w.u64(per.next_nonce);
            w.u64(per.window.tags.len() as u64);
            for tag in &per.window.tags {
                w.bytes(tag);
            }
        }

        let entries: Vec<_> = self.ingest.entries().collect();
        w.u64(entries.len() as u64);
        for (op, sid) in entries {
            w.u32(op.0);
            w.u64(sid.0);
        }
        w.0
    }

    /// Restores state from snapshot bytes, returning the generation the
    /// snapshot was taken at. Total decode: any malformation yields an
    /// error (and the caller falls back to the empty state).
    fn load_snapshot(&mut self, bytes: &[u8]) -> Result<u64, WireError> {
        let mut r = Reader::new(bytes);
        if r.take(SNAP_MAGIC.len())? != SNAP_MAGIC {
            return Err(WireError::BadMagic);
        }
        let version = r.u8()?;
        if version != SNAP_VERSION {
            return Err(WireError::UnsupportedVersion(version));
        }
        let generation = r.u64()?;

        let mut registry = Registry::new();
        let devices = r.usize64("device count")?;
        for _ in 0..devices {
            let id = DeviceId(r.u64()?);
            let op = OpId(r.u32()?);
            let key_seed = r.u64()?;
            let epoch = r.u64()?;
            registry.install_device(id, op, key_seed, epoch);
            let rec = registry.device_mut(id).expect("just installed");
            rec.last_verified = if r.bool()? { Some(r.u64()?) } else { None };
            rec.verified = r.u64()?;
            rec.rejected = r.u64()?;
        }

        let next_id = r.u64()?;
        let mut sessions = Vec::new();
        for _ in 0..r.usize64("session count")? {
            let id = SessionId(r.u64()?);
            let device = DeviceId(r.u64()?);
            let op = OpId(r.u32()?);
            let nonce = r.u64()?;
            let issued_at = r.u64()?;
            let deadline = r.u64()?;
            let state = decode_state(r.u8()?)?;
            let report = if r.bool()? { Some(decode_report_fields(&mut r)?) } else { None };
            let proof = if r.bool()? { Some(decode_dialed_proof(&mut r)?) } else { None };
            sessions.push((id, device, op, nonce, issued_at, deadline, state, report, proof));
        }

        let mut per_device = Vec::new();
        for _ in 0..r.usize64("per-device count")? {
            let device = DeviceId(r.u64()?);
            let next_nonce = r.u64()?;
            let window_len = r.usize64("window length")?;
            let mut tags = Vec::with_capacity(window_len.min(r.remaining() / 32 + 1));
            for _ in 0..window_len {
                tags.push(r.digest()?);
            }
            per_device.push((device, next_nonce, tags));
        }

        let mut queued = Vec::new();
        for _ in 0..r.usize64("ingest count")? {
            queued.push((OpId(r.u32()?), SessionId(r.u64()?)));
        }
        if r.remaining() != 0 {
            return Err(WireError::TrailingBytes(r.remaining()));
        }

        // Everything decoded — install (challenges re-derive from the
        // label + device + nonce, exactly as at issue time).
        self.registry = registry;
        for (id, device, op, nonce, issued_at, deadline, state, report, proof) in sessions {
            let challenge = self.sessions.derive_challenge(device, nonce);
            self.sessions.sessions.insert(
                id.0,
                Session {
                    id,
                    device,
                    op,
                    nonce,
                    challenge,
                    issued_at,
                    deadline,
                    state,
                    report,
                    proof,
                },
            );
        }
        self.sessions.next_id = next_id;
        for (device, next_nonce, tags) in per_device {
            let per = self.sessions.per_device.entry(device).or_default();
            per.next_nonce = next_nonce;
            per.window.tags = tags.into();
        }
        for (op, sid) in queued {
            self.ingest.enqueue(op, sid);
        }
        Ok(generation)
    }
}

/// Snapshot file magic: "Dialed SNaPshot".
const SNAP_MAGIC: [u8; 4] = *b"DSNP";
/// Current snapshot-format version.
const SNAP_VERSION: u8 = 1;

fn encode_state(s: SessionState) -> u8 {
    match s {
        SessionState::Issued => 0,
        SessionState::Submitted => 1,
        SessionState::Verified => 2,
        SessionState::Rejected => 3,
        SessionState::Expired => 4,
    }
}

fn decode_state(tag: u8) -> Result<SessionState, WireError> {
    match tag {
        0 => Ok(SessionState::Issued),
        1 => Ok(SessionState::Submitted),
        2 => Ok(SessionState::Verified),
        3 => Ok(SessionState::Rejected),
        4 => Ok(SessionState::Expired),
        tag => Err(WireError::UnknownTag { what: "session state", tag }),
    }
}

// Compile-time check that the WAL constants shared with `store` stay in
// scope — shard directories mix both file kinds.
const _: () = {
    assert!(WAL_MAGIC.len() == 4);
    assert!(WAL_VERSION == 1);
};

#[cfg(test)]
mod tests {
    use super::*;
    use apex::{PoxConfig, PoxProof};
    use dialed::attest::DialedProof;
    use std::collections::HashMap;

    fn params() -> ShardParams {
        ShardParams { label: b"shard-test".to_vec(), ttl: 64, window_cap: 8, snapshot_every: 1024 }
    }

    fn dummy_proof(tag_byte: u8) -> DialedProof {
        let cfg = PoxConfig::new(0xE000, 0xE00F, 0xE00E, 0x0600, 0x06FF).unwrap();
        DialedProof {
            pox: PoxProof { cfg, exec: true, or_data: vec![0; cfg.or_len()], tag: [tag_byte; 32] },
        }
    }

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("dialed-shard-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn ring_routes_deterministically_and_spreads_load() {
        let ring = HashRing::new(4);
        let mut counts: HashMap<usize, usize> = HashMap::new();
        for id in 0..4000u64 {
            let shard = ring.route(DeviceId(id));
            assert!(shard < 4);
            assert_eq!(shard, ring.route(DeviceId(id)), "routing must be stable");
            *counts.entry(shard).or_default() += 1;
        }
        // Consistent hashing is not perfectly uniform, but with 64 vnodes
        // per shard no shard should be starved or hog the space.
        for shard in 0..4 {
            let n = counts.get(&shard).copied().unwrap_or(0);
            assert!((400..=2200).contains(&n), "shard {shard} got {n} of 4000");
        }
        // A single-shard ring routes everything to shard 0.
        let solo = HashRing::new(1);
        assert!((0..100).all(|id| solo.route(DeviceId(id)) == 0));
    }

    #[test]
    fn ring_placement_is_stable_across_instances() {
        let a = HashRing::new(8);
        let b = HashRing::new(8);
        for id in 0..500u64 {
            assert_eq!(a.route(DeviceId(id)), b.route(DeviceId(id)));
        }
    }

    #[test]
    fn durable_shard_recovers_committed_state() {
        let dir = tmp_dir("recover");
        let dev = DeviceId(3);
        {
            let mut shard = Shard::recover(&dir, 0, 2, &params()).unwrap();
            shard.commit(StateEvent::DeviceRegistered {
                device: dev,
                op: OpId(0),
                key_seed: 7,
                epoch: 0,
            });
            shard.commit(StateEvent::ChallengeIssued {
                session: SessionId(0),
                device: dev,
                op: OpId(0),
                nonce: 0,
                issued_at: 1,
                deadline: 65,
            });
            shard.commit(StateEvent::ProofAccepted {
                session: SessionId(0),
                device: dev,
                proof: dummy_proof(0xAA),
            });
            // Dropped without a drain — the mid-batch crash.
        }
        let shard = Shard::recover(&dir, 0, 2, &params()).unwrap();
        assert_eq!(shard.registry().len(), 1);
        let s = shard.sessions().session(SessionId(0)).unwrap();
        assert_eq!(s.state, SessionState::Submitted);
        assert_eq!(shard.pending(), 1, "accepted proof must survive the crash");
        assert_eq!(shard.sessions().next_nonce(dev), 1);
        // The accepted tag is back in the anti-replay window.
        assert!(shard.sessions.check_submit(SessionId(0), dev, &[0xAA; 32], 2).is_err());
    }

    #[test]
    fn snapshot_rotation_preserves_state_and_bounds_segments() {
        let dir = tmp_dir("rotate");
        let mut p = params();
        p.snapshot_every = 4; // force rotations
        let dev = DeviceId(5);
        {
            let mut shard = Shard::recover(&dir, 1, 3, &p).unwrap();
            shard.commit(StateEvent::DeviceRegistered {
                device: dev,
                op: OpId(0),
                key_seed: 9,
                epoch: 2,
            });
            for round in 0..6u64 {
                shard.commit(StateEvent::ChallengeIssued {
                    session: SessionId(1 + 3 * round),
                    device: dev,
                    op: OpId(0),
                    nonce: round,
                    issued_at: round,
                    deadline: round + 64,
                });
                shard.commit(StateEvent::ProofAccepted {
                    session: SessionId(1 + 3 * round),
                    device: dev,
                    proof: dummy_proof(round as u8),
                });
                shard.commit(StateEvent::VerdictRecorded {
                    session: SessionId(1 + 3 * round),
                    report: Report::clean(Default::default()),
                });
            }
            assert!(shard.generation > 0, "snapshot_every=4 must have rotated");
        }
        // Exactly one WAL segment remains after rotations.
        let wal_files: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().starts_with("wal-"))
            .collect();
        assert_eq!(wal_files.len(), 1);

        let shard = Shard::recover(&dir, 1, 3, &p).unwrap();
        let rec = shard.registry().device(dev).unwrap();
        assert_eq!(rec.verified, 6);
        assert_eq!(rec.last_verified, Some(5));
        assert_eq!(rec.epoch(), 2);
        assert_eq!(shard.sessions().next_nonce(dev), 6);
        // Strided ids survive: next id ≡ 1 (mod 3).
        assert_eq!(shard.sessions().peek_next_id().0 % 3, 1);
        // The replay window survived the snapshot: an old accepted tag is
        // still refused.
        assert!(shard.sessions.check_submit(SessionId(100), dev, &[5; 32], 7).is_err());
    }

    #[test]
    fn deregistration_purges_sessions_and_queue() {
        let mut shard = Shard::in_memory(0, 1, &params());
        let dev = DeviceId(1);
        shard.commit(StateEvent::DeviceRegistered {
            device: dev,
            op: OpId(0),
            key_seed: 1,
            epoch: 0,
        });
        shard.commit(StateEvent::ChallengeIssued {
            session: SessionId(0),
            device: dev,
            op: OpId(0),
            nonce: 0,
            issued_at: 0,
            deadline: 64,
        });
        shard.commit(StateEvent::ProofAccepted {
            session: SessionId(0),
            device: dev,
            proof: dummy_proof(1),
        });
        assert_eq!(shard.pending(), 1);
        shard.commit(StateEvent::DeviceDeregistered { device: dev });
        assert_eq!(shard.pending(), 0, "queued proof of a removed device is dropped");
        assert!(shard.registry().device(dev).is_err());
        assert_eq!(shard.sessions().session(SessionId(0)).unwrap().state, SessionState::Expired);
    }
}
