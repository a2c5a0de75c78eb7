//! State shards and the consistent-hash ring that routes devices to them.
//!
//! A [`Shard`] owns one slice of the fleet's mutable state — a device
//! [`Registry`], a [`SessionManager`] minting strided session ids, and an
//! [`IngestQueue`] — plus, in durable mode, its own write-ahead-log
//! segment and snapshot file, and one warm [`EmuWorkspace`] per operation
//! it has drained. What a durable shard logs, and what a crash forgets, is
//! set out in [`crate::store`]: its boot epoch, its registrations and
//! deregistrations, its verdicts and its prune sweeps, but no issue or
//! submission. Shards share **nothing** mutable: a drain borrows the
//! fleet-global [`OpTable`] read-only (verifiers take `&self`), so shards
//! drain on different threads with no cross-shard locking.
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
//! <dir>/shard-<i>/snapshot.bin   atomic snapshot, generation g
//! <dir>/shard-<i>/wal-<g>.log    events since that snapshot
//! ```
//!
//! A snapshot holds exactly what the log alone rebuilds: the boot epoch,
//! the registry (with its device-id high-water mark) and the resolved
//! sessions not yet pruned. Open sessions, held proofs, the ingest queue
//! and the anti-replay windows live in memory only.
//!
//! Once a commit leaves the live segment holding at least as many bytes as
//! the last snapshot — and at least [`ROTATE_FLOOR`] — the shard writes a
//! new snapshot (tmp + fsync + rename, so readers never see a torn file),
//! rotates to a fresh WAL segment named for the new generation, and
//! deletes stale segments. Because segment names carry the generation, a
//! crash between "snapshot written" and "old segment deleted" cannot
//! double-apply: a snapshot at generation `g` replays only `wal-<g>.log`.
//!
//! Sizing rotation by bytes rather than by event count keeps the work in
//! proportion: a snapshot rewrites the whole state, so it is written once
//! the log has grown by about that much, and snapshot bytes never exceed
//! log bytes whatever the fleet size or event mix. Recovery reads one
//! snapshot plus at most about one snapshot's worth of log (or 1 MiB).
//! Both lengths are re-read from disk at recovery, so the rule carries
//! across restarts.

use crate::ingest::{DrainStats, IngestQueue};
use crate::registry::{DeviceId, OpId, OpRecord, OpTable, Registry};
use crate::session::{SessionId, SessionManager, SessionState};
use crate::store::{read_events, write_atomic, RecoverError, StateEvent, Wal};
use crate::wire::{decode_report_fields, encode_report_fields, Reader, WireError, Writer};
use dialed::request::{PerDevice, VerifyRequest};
use dialed::EmuWorkspace;
use std::io;
use std::path::{Path, PathBuf};

/// Live-segment bytes below which a shard never rotates, however small its
/// last snapshot: below this, replay is cheap and a snapshot is not.
pub const ROTATE_FLOOR: u64 = 1 << 20;

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
    /// Size of the last snapshot written or loaded (0 if none).
    snapshot_bytes: u64,
    /// Emulation buffers for each operation this shard has drained,
    /// indexed by [`OpId`]. A shard drains on one thread at a time, so it
    /// owns its workspaces outright and they stay warm whichever thread
    /// drains it next.
    workspaces: Vec<EmuWorkspace>,
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
            snapshot_bytes: 0,
            workspaces: Vec::new(),
        }
    }

    /// Opens (or creates) the durable shard at `dir`: loads the snapshot
    /// if one decodes, replays that generation's WAL segment through the
    /// same [`Shard::apply`] the live path uses, reopens the segment for
    /// appending and logs a [`StateEvent::BootEpoch`] one past the last
    /// epoch it recovered (0 when it recovered nothing). A fresh directory
    /// recovers to the empty state, so creation and recovery are one code
    /// path.
    ///
    /// Corruption is handled by prefix: a torn or corrupt WAL tail is
    /// dropped (see [`read_events`]), and an undecodable snapshot —
    /// impossible under the atomic-write discipline, but possible under
    /// bit rot — degrades to the empty state plus whatever its segment
    /// replays, never a panic.
    ///
    /// # Errors
    ///
    /// [`RecoverError::Format`] if the snapshot or the segment is of
    /// another format version; otherwise only genuine I/O failures.
    pub(crate) fn recover(
        dir: &Path,
        index: usize,
        stride: u64,
        params: &ShardParams,
    ) -> Result<Self, RecoverError> {
        std::fs::create_dir_all(dir)?;
        let mut shard = Self::in_memory(index, stride, params);
        shard.dir = Some(dir.to_path_buf());

        let snapshot = dir.join("snapshot.bin");
        if let Ok(bytes) = std::fs::read(&snapshot) {
            match shard.load_snapshot(&bytes) {
                Ok(generation) => {
                    shard.generation = generation;
                    shard.snapshot_bytes = bytes.len() as u64;
                }
                // Only the header check yields this: a complete snapshot
                // header of another version.
                Err(WireError::UnsupportedVersion(found)) => {
                    return Err(RecoverError::Format {
                        file: snapshot,
                        found,
                        expected: SNAP_VERSION,
                    });
                }
                Err(_) => {}
            }
        }
        let segment = dir.join(format!("wal-{}.log", shard.generation));
        let (events, valid) = read_events(&segment)?;
        let booted = shard.snapshot_bytes > 0 || !events.is_empty();
        for ev in events {
            shard.apply(ev);
        }
        shard.wal = Some(Wal::open(&segment, valid)?);
        let epoch = if booted { shard.sessions.boot_epoch + 1 } else { 0 };
        shard.commit(StateEvent::BootEpoch { epoch });
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

    /// Estimated cost of draining this shard now: each queued submission
    /// weighted by its operation's [`OpRecord::proof_cost_ns`].
    pub(crate) fn pending_work(&self, ops: &OpTable) -> u64 {
        self.ingest
            .depths()
            .map(|(op, n)| ops.op(op).map_or(0, OpRecord::proof_cost_ns) * n as u64)
            .sum()
    }

    /// This shard's ingest queue depth (see [`IngestQueue::depth`]) — the
    /// signal a network frontend's load-shedding watermark reads.
    #[must_use]
    pub fn ingest_depth(&self) -> usize {
        self.ingest.depth()
    }

    /// Makes `ev` durable with one `write`, then applies it. Fail-stop on
    /// a WAL append error: a mutation that cannot be persisted must not
    /// happen, or the next recovery would silently lose it.
    ///
    /// # Panics
    ///
    /// Panics if the WAL append fails (durable mode only).
    pub(crate) fn commit(&mut self, ev: StateEvent) {
        if let Some(wal) = &mut self.wal {
            wal.append(&ev).expect("WAL append failed: refusing to mutate non-durable state");
        }
        self.apply(ev);
        self.rotate_if_due();
    }

    /// [`Shard::commit`] for a whole batch: every event is staged, the
    /// batch reaches the WAL in one `write`, then each is applied in order.
    ///
    /// # Panics
    ///
    /// Panics if the WAL write fails (durable mode only).
    fn commit_batch(&mut self, events: Vec<StateEvent>) {
        if let Some(wal) = &mut self.wal {
            for ev in &events {
                wal.stage(ev);
            }
            wal.flush().expect("WAL append failed: refusing to mutate non-durable state");
        }
        for ev in events {
            self.apply(ev);
        }
        self.rotate_if_due();
    }

    /// Snapshots and rotates once the live segment holds at least
    /// `max(last snapshot's bytes, ROTATE_FLOOR)` (see the module docs).
    fn rotate_if_due(&mut self) {
        let Some(wal) = &self.wal else { return };
        if wal.size() >= self.snapshot_bytes.max(ROTATE_FLOOR) {
            // Snapshot failure is not fatal: the WAL segment keeps
            // growing and still replays the same state.
            let _ = self.snapshot();
        }
    }

    /// Applies one event to in-memory state — the single mutation path
    /// shared by live commits and recovery replay. Unknown references
    /// (e.g. a deregistration of a device the prefix never registered) are
    /// ignored, which is what makes replay of a valid *prefix* safe.
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
            StateEvent::BootEpoch { epoch } => self.sessions.start_boot_epoch(epoch),
            StateEvent::VerdictRecorded {
                session,
                device,
                op,
                nonce,
                issued_at,
                deadline,
                report,
            } => {
                if self.sessions.session(session).is_none() {
                    // Replay: only the logging process held the session.
                    self.sessions.install(session, device, op, nonce, issued_at, deadline);
                }
                self.registry.record_verdict(device, nonce, report.is_clean());
                self.sessions.apply_verdict(session, report);
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

    /// Prunes resolved sessions at `now` if any are prunable, committing
    /// one durable event. Returns how many sessions were evicted.
    pub(crate) fn prune(&mut self, now: u64) -> usize {
        let prunable = self.sessions.prunable(now);
        if prunable > 0 {
            self.commit(StateEvent::PruneSweep { now });
        }
        prunable
    }

    /// Drains this shard's queue through the fleet's operation verifiers,
    /// committing each operation's verdicts in one WAL write and appending
    /// every session it settled to `settled`. `ops` is borrowed read-only,
    /// so shards drain concurrently.
    pub(crate) fn drain(&mut self, ops: &OpTable, settled: &mut Vec<SessionId>) -> DrainStats {
        let mut stats = DrainStats::default();
        for (op, sids) in self.ingest.take_all() {
            let Ok(record) = ops.op(op) else { continue };
            let slot = op.0 as usize;
            if self.workspaces.len() <= slot {
                self.workspaces.resize_with(slot + 1, EmuWorkspace::new);
            }
            let ws = &mut self.workspaces[slot];
            // Per-device keys resolve by borrow out of this shard's registry.
            let reg = &self.registry;
            let keys = PerDevice::new(|device| Some(reg.device(DeviceId(device)).ok()?.ra()));
            let mut verdicts = Vec::with_capacity(sids.len());
            for sid in sids {
                let Some(s) = self.sessions.session_mut(sid) else { continue };
                if s.state != SessionState::Submitted {
                    continue;
                }
                // The session's held proof is consumed.
                let Some(proof) = s.proof.take() else { continue };
                let (device, challenge) = (s.device, s.challenge);
                let (nonce, issued_at, deadline) = (s.nonce, s.issued_at, s.deadline);
                if reg.device(device).is_err() {
                    continue;
                }
                let req = VerifyRequest::new(&proof, &challenge).for_device(device.0).keys(&keys);
                let report = record.verifier.verify_in(ws, &req);
                stats.drained += 1;
                if report.is_clean() {
                    stats.verified += 1;
                } else {
                    stats.rejected += 1;
                }
                settled.push(sid);
                verdicts.push(StateEvent::VerdictRecorded {
                    session: sid,
                    device,
                    op,
                    nonce,
                    issued_at,
                    deadline,
                    report,
                });
            }
            if verdicts.is_empty() {
                continue;
            }
            stats.batches += 1;
            self.commit_batch(verdicts);
        }
        if stats.drained > 0 {
            stats.shards = 1;
        }
        stats
    }

    // -- snapshots ----------------------------------------------------------

    /// Writes a snapshot, rotates to a fresh WAL segment named for the new
    /// generation, and deletes stale segments.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors; on failure the current segment
    /// stays authoritative.
    pub(crate) fn snapshot(&mut self) -> io::Result<()> {
        let Some(dir) = self.dir.clone() else { return Ok(()) };
        let next = self.generation + 1;
        let bytes = self.encode_snapshot(next);
        write_atomic(&dir.join("snapshot.bin"), &bytes)?;
        self.wal = Some(Wal::open(&dir.join(format!("wal-{next}.log")), 0)?);
        self.generation = next;
        self.snapshot_bytes = bytes.len() as u64;
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

    /// The snapshot bytes: what the log alone rebuilds (see the module
    /// docs).
    fn encode_snapshot(&self, generation: u64) -> Vec<u8> {
        let mut w = Writer(Vec::new());
        w.bytes(&SNAP_MAGIC);
        w.u8(SNAP_VERSION);
        w.u64(generation);
        w.u64(self.sessions.boot_epoch);
        w.u64(self.registry.next_device);

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

        let resolved: Vec<_> = self
            .sessions
            .sessions()
            .filter_map(|s| s.report.as_ref().map(|report| (s, report)))
            .collect();
        w.u64(resolved.len() as u64);
        for (s, report) in resolved {
            w.u64(s.id.0);
            w.u64(s.device.0);
            w.u32(s.op.0);
            w.u64(s.nonce);
            w.u64(s.issued_at);
            w.u64(s.deadline);
            encode_report_fields(&mut w, report);
        }
        w.0
    }

    /// Restores state from snapshot bytes, returning the generation the
    /// snapshot was taken at. Total decode: any malformation yields an
    /// error (and the caller falls back to the empty state, unless the
    /// error is the header's [`WireError::UnsupportedVersion`]).
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
        let boot_epoch = r.u64()?;

        let mut registry = Registry::new();
        registry.next_device = r.u64()?;
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

        let mut sessions = Vec::new();
        for _ in 0..r.usize64("session count")? {
            let id = SessionId(r.u64()?);
            let device = DeviceId(r.u64()?);
            let op = OpId(r.u32()?);
            let nonce = r.u64()?;
            let issued_at = r.u64()?;
            let deadline = r.u64()?;
            let report = decode_report_fields(&mut r)?;
            sessions.push((id, device, op, nonce, issued_at, deadline, report));
        }
        if r.remaining() != 0 {
            return Err(WireError::TrailingBytes(r.remaining()));
        }

        // Everything decoded — install (challenges re-derive from the
        // label + device + nonce, exactly as at issue time).
        self.registry = registry;
        self.sessions.boot_epoch = boot_epoch;
        for (id, device, op, nonce, issued_at, deadline, report) in sessions {
            self.sessions.install(id, device, op, nonce, issued_at, deadline);
            self.sessions.apply_verdict(id, report);
        }
        Ok(generation)
    }
}

/// Snapshot file magic: "Dialed SNaPshot".
const SNAP_MAGIC: [u8; 4] = *b"DSNP";
/// Current snapshot-format version. Version 3 holds the boot epoch, the
/// device-id high-water mark and resolved sessions only: no open
/// sessions, proofs, ingest queue, nonces or replay windows.
pub(crate) const SNAP_VERSION: u8 = 3;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::EPOCH_SHIFT;
    use crate::store::encode_event;
    use apex::{PoxConfig, PoxProof};
    use dialed::attest::DialedProof;
    use dialed::report::Report;
    use std::collections::HashMap;

    fn params() -> ShardParams {
        ShardParams { label: b"shard-test".to_vec(), ttl: 64, window_cap: 8 }
    }

    fn dummy_proof(tag_byte: u8) -> DialedProof {
        let cfg = PoxConfig::new(0xE000, 0xE00F, 0xE00E, 0x0600, 0x06FF).unwrap();
        DialedProof {
            pox: PoxProof { cfg, exec: true, or_data: vec![0; cfg.or_len()], tag: [tag_byte; 32] },
        }
    }

    /// The shard's durable state, as its snapshot encodes it, without the
    /// boot epoch (which every reopening advances).
    fn state_of(shard: &Shard) -> Vec<u8> {
        let mut bytes = shard.encode_snapshot(0);
        bytes.drain(13..21);
        bytes
    }

    fn register(shard: &mut Shard, device: DeviceId, key_seed: u64, epoch: u64) {
        shard.commit(StateEvent::DeviceRegistered { device, op: OpId(0), key_seed, epoch });
    }

    /// Issues a session to `dev` and accepts `proof` for it, as the
    /// fleet's `issue` and `submit` do: in memory only.
    fn accept(shard: &mut Shard, dev: DeviceId, proof: DialedProof) -> SessionId {
        let sid = shard.sessions.issue(dev, OpId(0), 0).id;
        let op = shard.sessions.submit(sid, dev, proof, 0).unwrap();
        shard.ingest.enqueue(op, sid);
        sid
    }

    /// Commits a clean verdict for the submitted session `sid`, as a drain
    /// does.
    fn settle(shard: &mut Shard, sid: SessionId) {
        let s = shard.sessions.session(sid).unwrap();
        let (device, op, nonce, issued_at, deadline) =
            (s.device, s.op, s.nonce, s.issued_at, s.deadline);
        shard.ingest.discard(op, sid);
        let report = Report::clean(Default::default());
        let ev = StateEvent::VerdictRecorded {
            session: sid,
            device,
            op,
            nonce,
            issued_at,
            deadline,
            report,
        };
        shard.commit(ev);
    }

    /// The WAL segments in `dir`.
    fn segments(dir: &Path) -> usize {
        std::fs::read_dir(dir)
            .unwrap()
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().starts_with("wal-"))
            .count()
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
        let (verified, open) = {
            let mut shard = Shard::recover(&dir, 0, 2, &params()).unwrap();
            assert_eq!(shard.sessions.boot_epoch, 0, "a fresh shard boots epoch 0");
            register(&mut shard, dev, 7, 0);
            let verified = accept(&mut shard, dev, dummy_proof(0xAA));
            settle(&mut shard, verified);
            // Accepted but not drained — the mid-batch crash.
            (verified, accept(&mut shard, dev, dummy_proof(0xBB)))
        };
        let shard = Shard::recover(&dir, 0, 2, &params()).unwrap();
        assert_eq!(shard.sessions.boot_epoch, 1);
        let rec = shard.registry().device(dev).unwrap();
        assert_eq!((rec.verified, rec.last_verified), (1, Some(0)));
        // The resolved session is rebuilt from its verdict record alone,
        // challenge included; the open one is forgotten.
        let s = shard.sessions().session(verified).unwrap();
        assert_eq!((s.state, s.device, s.nonce), (SessionState::Verified, dev, 0));
        assert_eq!(s.challenge, shard.sessions.derive_challenge(dev, 0));
        assert!(shard.sessions().session(open).is_none());
        assert_eq!(shard.pending(), 0);
        // Nonces and ids restart above everything epoch 0 issued.
        assert_eq!(shard.sessions().next_nonce(dev), 1 << EPOCH_SHIFT);
        let next = shard.sessions().peek_next_id();
        assert!(next > open && next.0 % 2 == 0, "{next}");
        // The replay window lived in memory only: an old tag now passes the
        // session layer, and the MAC rejects it under the fresh challenge.
        let mut shard = shard;
        let sid = shard.sessions.issue(dev, OpId(0), 0).id;
        assert!(shard.sessions.check_submit(sid, dev, &[0xAA; 32], 1).is_ok());
    }

    #[test]
    fn snapshot_rotation_preserves_state_and_bounds_segments() {
        let dir = tmp_dir("rotate");
        let dev = DeviceId(5);
        let before = {
            let mut shard = Shard::recover(&dir, 1, 3, &params()).unwrap();
            register(&mut shard, dev, 9, 2);
            // Snapshots after rounds 1 and 4, and one between an accepted
            // proof and its verdict: the snapshot leaves the open session
            // out and the verdict record in the next segment rebuilds it.
            for r in 0..6u64 {
                let sid = accept(&mut shard, dev, dummy_proof(r as u8));
                if r == 3 {
                    shard.snapshot().unwrap();
                }
                settle(&mut shard, sid);
                if r == 1 || r == 4 {
                    shard.snapshot().unwrap();
                }
            }
            assert_eq!(shard.generation, 3);
            state_of(&shard)
        };
        // Exactly one WAL segment remains after rotations.
        assert_eq!(segments(&dir), 1);

        let shard = Shard::recover(&dir, 1, 3, &params()).unwrap();
        assert_eq!(state_of(&shard), before);
        assert_eq!(shard.sessions.boot_epoch, 1);
        let rec = shard.registry().device(dev).unwrap();
        assert_eq!(rec.verified, 6);
        assert_eq!(rec.last_verified, Some(5));
        assert_eq!(rec.epoch(), 2);
        assert_eq!(shard.sessions().next_nonce(dev), 1 << EPOCH_SHIFT);
        // Strided ids survive: next id ≡ 1 (mod 3).
        assert_eq!(shard.sessions().peek_next_id().0 % 3, 1);
    }

    #[test]
    fn segment_past_the_floor_rotates_by_itself() {
        let dir = tmp_dir("floor");
        let dev = DeviceId(2);
        let mut shard = Shard::recover(&dir, 0, 1, &params()).unwrap();
        register(&mut shard, dev, 1, 0);
        let round = |shard: &mut Shard, n: u64| {
            let sid = accept(shard, dev, dummy_proof(n as u8));
            settle(shard, sid);
        };
        let mut rounds = 0;
        while shard.generation == 0 {
            assert!(rounds < 20_000, "1 MiB of log never rotated");
            round(&mut shard, rounds);
            rounds += 1;
        }
        let wal = shard.wal.as_ref().unwrap();
        assert!(wal.size() < ROTATE_FLOOR, "the rotating commit starts a fresh segment");
        assert!(shard.snapshot_bytes > 0 && shard.snapshot_bytes < ROTATE_FLOOR);
        // A few more rounds land in the new segment, then the shard
        // recovers to the same state from snapshot + segment, and appends
        // its boot record to that segment.
        for n in 0..3 {
            round(&mut shard, rounds + n);
        }
        assert_eq!(segments(&dir), 1);
        let recovered = Shard::recover(&dir, 0, 1, &params()).unwrap();
        assert_eq!(state_of(&recovered), state_of(&shard));
        assert_eq!(recovered.snapshot_bytes, shard.snapshot_bytes);
        let boot = 8 + encode_event(&StateEvent::BootEpoch { epoch: 1 }).len() as u64;
        let sizes = [&recovered, &shard].map(|s| s.wal.as_ref().unwrap().size());
        assert_eq!(sizes[0], sizes[1] + boot);
    }

    #[test]
    fn deregistration_purges_sessions_and_queue() {
        let mut shard = Shard::in_memory(0, 1, &params());
        let dev = DeviceId(1);
        register(&mut shard, dev, 1, 0);
        let sid = accept(&mut shard, dev, dummy_proof(1));
        assert_eq!(shard.pending(), 1);
        shard.commit(StateEvent::DeviceDeregistered { device: dev });
        assert_eq!(shard.pending(), 0, "queued proof of a removed device is dropped");
        assert!(shard.registry().device(dev).is_err());
        assert_eq!(shard.sessions().session(sid).unwrap().state, SessionState::Expired);
        assert_eq!(shard.registry.next_device, 2, "a removed id is never issued again");
    }
}
