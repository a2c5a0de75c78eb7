//! State shards: one independent slice of fleet state each.
//!
//! A [`Shard`] owns one slice of the fleet's mutable state — a device
//! [`Registry`], a [`SessionManager`] minting strided session ids, and an
//! [`IngestQueue`] — plus, in durable mode, its own write-ahead-log
//! segment, and one warm [`EmuWorkspace`] per operation it has drained.
//! What a durable shard logs, and what a crash forgets, is set out in
//! [`crate::store`]: its boot epoch, its registrations and
//! deregistrations, its verdicts and its prune sweeps, but no issue or
//! submission. Shards share **nothing** mutable: a drain borrows the
//! fleet-global [`OpTable`] read-only (verifiers take `&self`), so shards
//! drain on different threads with no cross-shard locking.
//!
//! Routing is by id, for every id the service assigns: of `N` shards,
//! device `d` lives on shard `d mod N`, and shard `s` mints session ids
//! `s, s+N, s+2N, …`, so a device's sessions live on its own shard. The
//! fleet numbers its devices densely and pins `N` when a durable fleet is
//! first created, so placement depends only on the id: it is stable
//! across restarts, which is what lets each shard recover its own WAL
//! segment independently, and a contiguous run of devices splits evenly.
//!
//! # Durability layout
//!
//! ```text
//! <dir>/shard-<i>/wal-<g>.log    compaction g, then every later event
//! ```
//!
//! One file kind, one codec. Recovery replays the newest segment through
//! `Shard::apply`, the path live commits take; an older segment or a
//! `.tmp` file left by a crash is ignored, and swept by the next
//! compaction.
//!
//! Compaction writes the events that rebuild the durable state as
//! `wal-<g+1>.log` through [`Wal::replace`], whose rename is the one
//! commit point: the boot epoch first, so any prefix keeps nonces fresh;
//! each device, with [`StateEvent::DeviceCounters`] once it has a verdict;
//! the [`StateEvent::DeviceIdMark`]; then every resolved session not yet
//! pruned, as its [`StateEvent::VerdictRecorded`]. Open sessions, held
//! proofs, the ingest queue and the anti-replay windows live in memory.
//!
//! A shard compacts once a commit leaves at least as many bytes after the
//! segment's compacted state as that state holds, and at least
//! [`ROTATE_FLOOR`]. A segment recovery opens counts as all log, so a
//! reopened shard past the floor compacts at once. Sizing by bytes keeps
//! the work in proportion whatever the fleet size or event mix: recovery
//! replays at most about two compactions' worth (or the floor).

use crate::ingest::{DrainStats, IngestQueue};
use crate::registry::{DeviceId, OpId, OpRecord, OpTable, Registry};
use crate::session::{IdMap, SessionId, SessionManager, SessionState};
use crate::store::{read_events, RecoverError, StateEvent, Wal};
use dialed::request::{PerDevice, VerifyRequest};
use dialed::EmuWorkspace;
use std::io;
use std::path::{Path, PathBuf};

/// Live-segment bytes below which a shard never compacts, however small
/// its state: below this, replay is cheap and a compaction is not.
pub const ROTATE_FLOOR: u64 = 1 << 20;

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
    /// Bytes of compacted state at the head of the live segment: what the
    /// last compaction wrote, or 0 for a segment recovery opened.
    compacted_bytes: u64,
    /// Emulation buffers for each operation this shard has drained,
    /// indexed by [`OpId`]. A shard drains on one thread at a time, so it
    /// owns its workspaces outright and they stay warm whichever thread
    /// drains it next.
    workspaces: Vec<EmuWorkspace>,
    /// The output-region buffer a drain expands each held proof into.
    or_buf: Vec<u8>,
}

impl Shard {
    /// An in-memory shard (no durability).
    pub(crate) fn in_memory(index: usize, stride: u64, params: &ShardParams) -> Self {
        Self {
            index,
            registry: Registry::strided(stride),
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
            compacted_bytes: 0,
            workspaces: Vec::new(),
            or_buf: Vec::new(),
        }
    }

    /// Opens (or creates) the durable shard at `dir`: replays its newest
    /// WAL segment through [`Shard::apply`], reopens it for appending and
    /// logs a [`StateEvent::BootEpoch`] one past the last epoch it
    /// recovered (0 when it recovered nothing), so creation and recovery
    /// are one code path. A torn or corrupt tail is dropped (see
    /// [`read_events`]), never panicked on.
    ///
    /// # Errors
    ///
    /// [`RecoverError::Format`] if the segment is of another format
    /// version; otherwise only genuine I/O failures.
    pub(crate) fn recover(
        dir: &Path,
        index: usize,
        stride: u64,
        params: &ShardParams,
    ) -> Result<Self, RecoverError> {
        std::fs::create_dir_all(dir)?;
        let mut shard = Self::in_memory(index, stride, params);
        shard.dir = Some(dir.to_path_buf());
        shard.generation = newest_segment(dir)?;
        let segment = dir.join(segment_name(shard.generation));
        let (events, valid) = read_events(&segment)?;
        let booted = !events.is_empty();
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
        self.compact_if_due();
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
        self.compact_if_due();
    }

    /// Compacts once the live segment holds at least
    /// `max(compacted bytes, ROTATE_FLOOR)` bytes after its compacted
    /// state (see the module docs).
    fn compact_if_due(&mut self) {
        let Some(wal) = &self.wal else { return };
        if wal.size() - self.compacted_bytes >= self.compacted_bytes.max(ROTATE_FLOOR) {
            // Compaction failure is not fatal: the live segment keeps
            // growing and still replays the same state.
            let _ = self.compact();
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
            StateEvent::DeviceCounters { device, last_verified, verified, rejected } => {
                if let Ok(rec) = self.registry.device_mut(device) {
                    (rec.last_verified, rec.verified, rec.rejected) =
                        (last_verified, verified, rejected);
                }
            }
            StateEvent::DeviceIdMark { next } => {
                self.registry.next_device = self.registry.next_device.max(next);
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
    /// operation by operation in ascending [`OpId`] order,
    /// committing each operation's verdicts in one WAL write and appending
    /// every session it settled to `settled`. Each held proof is expanded
    /// from its packed form into one region buffer that every proof of the
    /// pass reuses, so the region being verified stays in cache. `ops` is
    /// borrowed read-only, so shards drain concurrently.
    pub(crate) fn drain(&mut self, ops: &OpTable, settled: &mut Vec<SessionId>) -> DrainStats {
        let mut stats = DrainStats::default();
        let mut from = OpId(0);
        while let Some((op, sids)) = self.ingest.take_next(from) {
            from = OpId(op.0.saturating_add(1));
            if let Ok(record) = ops.op(op) {
                self.drain_batch(record, &sids, &mut stats, settled);
            }
            self.ingest.give_back(op, sids);
        }
        if stats.drained > 0 {
            stats.shards = 1;
        }
        stats
    }

    /// Verifies the queued sessions `sids` of one operation and commits
    /// their verdicts in one WAL write (see [`Shard::drain`]).
    fn drain_batch(
        &mut self,
        record: &OpRecord,
        sids: &[SessionId],
        stats: &mut DrainStats,
        settled: &mut Vec<SessionId>,
    ) {
        let op = record.id;
        let slot = op.0 as usize;
        if self.workspaces.len() <= slot {
            self.workspaces.resize_with(slot + 1, EmuWorkspace::new);
        }
        let ws = &mut self.workspaces[slot];
        // Per-device keys resolve by borrow out of this shard's registry; a
        // device with no schedule yet answers `None`, an unknown key.
        let reg = &self.registry;
        let keys = PerDevice::new(|device| reg.device(DeviceId(device)).ok()?.ra());
        let mut or_buf = std::mem::take(&mut self.or_buf);
        let mut verdicts = Vec::with_capacity(sids.len());
        for &sid in sids {
            let Some(s) = self.sessions.session_mut(sid) else { continue };
            if s.state != SessionState::Submitted {
                continue;
            }
            // The session's held proof is consumed.
            let Some(packed) = s.proof.take() else { continue };
            let (device, challenge) = (s.device, s.challenge);
            let (nonce, issued_at, deadline) = (s.nonce, s.issued_at, s.deadline);
            let Ok(rec) = reg.device(device) else { continue };
            debug_assert!(rec.ra().is_some(), "{device} was never issued a challenge");
            let proof = packed.unpack_into(or_buf);
            let req = VerifyRequest::new(&proof, &challenge).for_device(device.0).keys(&keys);
            let report = record.verifier.verify_in(ws, &req);
            or_buf = proof.pox.or_data;
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
        self.or_buf = or_buf;
        if !verdicts.is_empty() {
            stats.batches += 1;
            self.commit_batch(verdicts);
        }
    }

    // -- compaction ---------------------------------------------------------

    /// Writes the state as the events of segment `generation + 1`, appends
    /// there from now on and deletes every other segment (see the module
    /// docs).
    ///
    /// # Errors
    ///
    /// Propagates file-system errors; on failure the current segment
    /// stays authoritative.
    pub(crate) fn compact(&mut self) -> io::Result<()> {
        let Some(dir) = self.dir.clone() else { return Ok(()) };
        let next = self.generation + 1;
        let keep = segment_name(next);
        let wal = Wal::replace(&dir.join(&keep), self.state_events())?;
        self.compacted_bytes = wal.size();
        self.wal = Some(wal);
        self.generation = next;
        for entry in std::fs::read_dir(&dir).into_iter().flatten().flatten() {
            let name = entry.file_name();
            if name.to_string_lossy().starts_with("wal-") && name != keep.as_str() {
                let _ = std::fs::remove_file(entry.path());
            }
        }
        Ok(())
    }

    /// The events that rebuild this shard's durable state, in compaction
    /// order. A device's counters leave out the verdicts of its retained
    /// sessions, which their own records count again on replay.
    fn state_events(&self) -> impl Iterator<Item = StateEvent> + '_ {
        let mut retained: IdMap<DeviceId, (u64, u64)> = IdMap::default();
        for s in self.sessions.sessions() {
            let tally = retained.entry(s.device).or_default();
            match s.state {
                SessionState::Verified => tally.0 += 1,
                SessionState::Rejected => tally.1 += 1,
                _ => {}
            }
        }
        let boot = StateEvent::BootEpoch { epoch: self.sessions.boot_epoch };
        let devices = self.registry.devices().flat_map(move |d| {
            let registered = StateEvent::DeviceRegistered {
                device: d.id,
                op: d.op,
                key_seed: d.key_seed,
                epoch: d.epoch,
            };
            let (verified, rejected) = retained.get(&d.id).copied().unwrap_or_default();
            let counters = (d.verified + d.rejected > 0).then(|| StateEvent::DeviceCounters {
                device: d.id,
                last_verified: d.last_verified,
                verified: d.verified.saturating_sub(verified),
                rejected: d.rejected.saturating_sub(rejected),
            });
            std::iter::once(registered).chain(counters)
        });
        let mark = StateEvent::DeviceIdMark { next: self.registry.next_device };
        let verdicts = self.sessions.sessions().filter_map(|s| {
            Some(StateEvent::VerdictRecorded {
                session: s.id,
                device: s.device,
                op: s.op,
                nonce: s.nonce,
                issued_at: s.issued_at,
                deadline: s.deadline,
                report: s.report.clone()?,
            })
        });
        std::iter::once(boot).chain(devices).chain([mark]).chain(verdicts)
    }
}

/// The file name of segment `generation`.
fn segment_name(generation: u64) -> String {
    format!("wal-{generation}.log")
}

/// The generation of the newest `wal-<g>.log` in `dir` (0 if none).
fn newest_segment(dir: &Path) -> io::Result<u64> {
    let mut newest = 0;
    for entry in std::fs::read_dir(dir)?.flatten() {
        let name = entry.file_name();
        let generation = name.to_str().and_then(|n| n.strip_prefix("wal-")?.strip_suffix(".log"));
        if let Some(g) = generation.and_then(|g| g.parse().ok()) {
            newest = newest.max(g);
        }
    }
    Ok(newest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::EPOCH_SHIFT;
    use apex::{PoxConfig, PoxProof};
    use dialed::attest::DialedProof;
    use dialed::report::Report;

    fn params() -> ShardParams {
        ShardParams { label: b"shard-test".to_vec(), ttl: 64, window_cap: 8 }
    }

    fn dummy_proof(tag_byte: u8) -> DialedProof {
        let cfg = PoxConfig::new(0xE000, 0xE00F, 0xE00E, 0x0600, 0x06FF).unwrap();
        DialedProof {
            pox: PoxProof { cfg, exec: true, or_data: vec![0; cfg.or_len()], tag: [tag_byte; 32] },
        }
    }

    /// The shard's durable state, read field by field: its devices with
    /// their keys and counters, the device-id high-water mark, and its
    /// resolved sessions (without the boot epoch, which every reopening
    /// advances).
    fn state_of(shard: &Shard) -> String {
        let devices: Vec<_> = shard
            .registry
            .devices()
            .map(|d| (d.id, d.op, d.key_seed, d.epoch, d.last_verified, d.verified, d.rejected))
            .collect();
        let sessions: Vec<_> = shard
            .sessions
            .sessions()
            .filter(|s| s.report.is_some())
            .map(|s| {
                (s.id, s.device, s.nonce, s.challenge, s.issued_at, s.deadline, s.state, &s.report)
            })
            .collect();
        format!("{devices:?} {} {sessions:?}", shard.registry.next_device)
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
        let (dev, gone) = (DeviceId(5), DeviceId(8));
        let before = {
            let mut shard = Shard::recover(&dir, 1, 3, &params()).unwrap();
            register(&mut shard, dev, 9, 2);
            register(&mut shard, gone, 4, 2);
            // Compactions after rounds 1 and 4, and one between an accepted
            // proof and its verdict: the compaction leaves the open session
            // out and the verdict record appended after it rebuilds it.
            for r in 0..6u64 {
                let sid = accept(&mut shard, dev, dummy_proof(r as u8));
                if r == 3 {
                    shard.compact().unwrap();
                }
                settle(&mut shard, sid);
                if r == 1 {
                    shard.compact().unwrap();
                }
                if r == 2 {
                    // Pruned history lives on in the device's counters only.
                    assert_eq!(shard.prune(70), 3);
                }
                if r == 4 {
                    // The highest id stays taken once its device is gone.
                    shard.commit(StateEvent::DeviceDeregistered { device: gone });
                    shard.compact().unwrap();
                }
            }
            assert_eq!(shard.generation, 3);
            state_of(&shard)
        };
        // Exactly one WAL segment remains after compactions.
        assert_eq!(segments(&dir), 1);

        let shard = Shard::recover(&dir, 1, 3, &params()).unwrap();
        assert_eq!(state_of(&shard), before);
        assert_eq!(shard.sessions.boot_epoch, 1);
        // Three retained verdicts replay on top of counters that leave them
        // out: each is counted once.
        assert_eq!(shard.sessions.len(), 3);
        let rec = shard.registry().device(dev).unwrap();
        assert_eq!(rec.verified, 6);
        assert_eq!(rec.last_verified, Some(5));
        assert_eq!(rec.epoch(), 2);
        assert_eq!(shard.registry.next_device, 9);
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
            assert!(rounds < 20_000, "1 MiB of log never compacted");
            round(&mut shard, rounds);
            rounds += 1;
        }
        // The compacting commit starts a segment holding just the state.
        let size = |s: &Shard| s.wal.as_ref().unwrap().size();
        assert!(shard.compacted_bytes > 0);
        assert_eq!(size(&shard), shard.compacted_bytes);
        // A few more rounds land in the new segment, then the shard
        // recovers to the same state from it. Every verdict is retained,
        // so the reopened segment is past the floor: it counts as all log,
        // and the recovered shard compacts at once.
        for n in 0..3 {
            round(&mut shard, rounds + n);
        }
        assert_eq!(segments(&dir), 1);
        assert!(size(&shard) > ROTATE_FLOOR);
        let recovered = Shard::recover(&dir, 0, 1, &params()).unwrap();
        assert_eq!(state_of(&recovered), state_of(&shard));
        assert_eq!(recovered.registry().device(dev).unwrap().verified, rounds + 3);
        assert_eq!(recovered.generation, shard.generation + 1);
        assert_eq!(size(&recovered), recovered.compacted_bytes);
        assert_eq!(segments(&dir), 1);
        // Its boot record leads the new segment.
        let (events, _) = read_events(&dir.join(segment_name(recovered.generation))).unwrap();
        assert_eq!(events[0], StateEvent::BootEpoch { epoch: 1 });
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
