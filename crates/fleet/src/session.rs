//! Challenge sessions: issuance, the per-session state machine, and
//! anti-replay enforcement.
//!
//! Every attestation round is a **session**:
//!
//! ```text
//!            issue()            submit()           drain (ingest)
//! (created) ───────► Issued ───────────► Submitted ───────► Verified
//!                      │                     ▲    │             or
//!                      │ deadline passed     │    └───────► Rejected
//!                      ▼                     │
//!                   Expired          duplicate/replay ⇒ error, state
//!                                    unchanged, nothing queued
//! ```
//!
//! Freshness comes from a **(boot epoch, counter) nonce**: each issued
//! challenge is derived from the fleet label, the device id and a nonce
//! whose high bits are the shard's boot epoch and whose low
//! [`EPOCH_SHIFT`] bits count the device's challenges since that boot. A
//! durable shard logs a new epoch each time it opens (see
//! [`crate::store`]), so no two sessions ever share a challenge, across
//! crashes too, and an old proof can never satisfy a new session's MAC.
//! On top of that, an **anti-replay window** remembers the tags of
//! recently accepted proofs per device; re-submitting a captured proof —
//! to the same session or to any later one — is rejected at the session
//! layer, before any cryptographic or emulation work is spent. The window
//! lives in memory only: after a restart a captured proof fails on the
//! MAC instead.
//!
//! Submission is a pure check ([`SessionManager::check_submit`]) and then
//! its application; a verdict a shard logged replays through the same
//! install and resolve steps the live service runs. A manager constructed
//! with
//! [`SessionManager::with_ids`] allocates session ids on a stride
//! (`first`, `first + stride`, …, restarting above the previous epoch's
//! ids at each boot) so each state shard mints ids that encode its own
//! index — `id % shards` routes a session back to its shard with no
//! shared counter.
//!
//! Time is a caller-supplied logical clock (`u64` ticks), keeping the
//! whole service deterministic and testable; a deployment maps it to
//! seconds.

use crate::registry::{DeviceId, OpId};
use crate::wire::PackedProof;
use dialed::attest::DialedProof;
use dialed::report::Report;
use hacl::{Digest, Sha256};
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use vrased::Challenge;

/// Identifies one session within a fleet.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SessionId(pub u64);

impl fmt::Display for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sess#{}", self.0)
    }
}

/// Where a session is in its lifecycle.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SessionState {
    /// Challenge issued, waiting for the device's proof.
    Issued,
    /// Proof accepted into the ingest queue, waiting for verification.
    Submitted,
    /// The proof verified clean.
    Verified,
    /// The proof failed verification (cryptographically or by
    /// reconstruction).
    Rejected,
    /// The deadline passed with no accepted submission — or the device was
    /// deregistered while the session was still open.
    Expired,
}

/// Session-layer failures. All of these are detected *before* any
/// cryptographic or emulation work.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SessionError {
    /// The referenced session does not exist.
    UnknownSession(SessionId),
    /// The submitting device is not the one the session was issued to.
    DeviceMismatch {
        /// Device the session belongs to.
        expected: DeviceId,
        /// Device that submitted.
        got: DeviceId,
    },
    /// The session already left `Issued` — a duplicate or late submission.
    NotAwaitingProof(SessionState),
    /// The session's deadline passed before the submission arrived.
    Expired {
        /// The deadline that was missed.
        deadline: u64,
    },
    /// The proof's tag was already accepted recently for this device — a
    /// replayed capture.
    ReplayedProof,
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::UnknownSession(id) => write!(f, "{id} does not exist"),
            SessionError::DeviceMismatch { expected, got } => {
                write!(f, "session belongs to {expected}, not {got}")
            }
            SessionError::NotAwaitingProof(state) => {
                write!(f, "session is {state:?}, not awaiting a proof")
            }
            SessionError::Expired { deadline } => {
                write!(f, "session expired at t={deadline}")
            }
            SessionError::ReplayedProof => write!(f, "proof tag replayed within the window"),
        }
    }
}

impl std::error::Error for SessionError {}

impl From<SessionError> for dialed::report::RejectReason {
    /// Session failures reject as
    /// [`SessionViolation`](dialed::report::RejectReason::SessionViolation):
    /// the submission died at the protocol layer, before any cryptography.
    fn from(e: SessionError) -> Self {
        dialed::report::RejectReason::SessionViolation { detail: e.to_string() }
    }
}

/// One attestation round.
#[derive(Clone, Debug)]
pub struct Session {
    /// The session's id.
    pub id: SessionId,
    /// Device the challenge was issued to.
    pub device: DeviceId,
    /// Operation the device must prove.
    pub op: OpId,
    /// The session's (boot epoch, counter) challenge nonce.
    pub nonce: u64,
    /// The issued challenge.
    pub challenge: Challenge,
    /// Logical time of issuance.
    pub issued_at: u64,
    /// Logical deadline (inclusive) for submission.
    pub deadline: u64,
    /// Lifecycle state.
    pub state: SessionState,
    /// The verifier's report once the session resolved.
    pub report: Option<Report>,
    /// The submitted proof, held until its drain verifies it. It is held
    /// packed, as the wire carries it: the output region's leading zero
    /// run is a count, so a PoX-only proof holds no region bytes, and the
    /// drain expands each proof into one buffer it reuses.
    pub(crate) proof: Option<PackedProof>,
}

impl Session {
    /// Whether the session still awaits a proof or a verdict.
    fn is_open(&self) -> bool {
        matches!(self.state, SessionState::Issued | SessionState::Submitted)
    }
}

/// Sliding window of recently accepted proof tags for one device.
#[derive(Clone, Debug, Default)]
pub(crate) struct ReplayWindow {
    pub(crate) tags: VecDeque<Digest>,
}

impl ReplayWindow {
    fn contains(&self, tag: &Digest) -> bool {
        self.tags.iter().any(|t| t == tag)
    }

    /// Remembers `tag`, forgetting the oldest beyond `cap`. The first push
    /// sizes the window for `cap` tags, so it never grows after that.
    fn push(&mut self, tag: Digest, cap: usize) {
        let cap = cap.max(1);
        if self.tags.capacity() == 0 {
            self.tags.reserve_exact(cap);
        }
        while self.tags.len() >= cap {
            self.tags.pop_front();
        }
        self.tags.push_back(tag);
    }
}

/// Per-device session-layer state, in memory only.
#[derive(Clone, Debug)]
pub(crate) struct DeviceSessions {
    /// `H(fleet label ‖ device id)`, the part of every challenge the nonce
    /// does not change: hashed once, when the entry is created.
    base: Digest,
    /// Next challenge nonce — strictly monotonic, never reused.
    pub(crate) next_nonce: u64,
    pub(crate) window: ReplayWindow,
}

/// `H(fleet label ‖ device id)`: what every challenge of `device` binds its
/// nonce to.
fn challenge_base(label: &[u8], device: DeviceId) -> Digest {
    let mut h = Sha256::new();
    h.update(label);
    h.update(&device.0.to_le_bytes());
    h.finalize()
}

/// A multiplicative hash for the integer ids this crate keys maps by.
/// Session ids are strided by the shard count and carry the boot epoch at
/// bit [`EPOCH_SHIFT`], so their low bits alone would cluster: the
/// product's high half is folded into the low half the table indexes by.
/// Not collision-resistant, and it need not be: every key is an id the
/// service assigned itself — a peer can name one in a lookup but never
/// make the service insert one of its choosing, so there is no HashDoS.
#[derive(Default)]
pub(crate) struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

/// A `HashMap` keyed by service-assigned ids (see [`IdHasher`]).
pub(crate) type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// Low bits of a nonce or a session-id step that count within one boot
/// epoch; the bits above hold the epoch. One boot issues at most 2^40
/// challenges per device and 2^40 sessions per shard.
pub const EPOCH_SHIFT: u32 = 40;

/// Issues challenges and walks sessions through their state machine.
#[derive(Debug)]
pub struct SessionManager {
    label: Vec<u8>,
    ttl: u64,
    window_cap: usize,
    next_id: u64,
    first: u64,
    stride: u64,
    /// The boot epoch nonces and ids are issued under (0 in memory).
    pub(crate) boot_epoch: u64,
    /// Retained sessions, packed in no particular order: a table of
    /// 232-byte values grows by copying only what it holds, where a hash
    /// table of them would hold each one twice while it rehashes.
    sessions: Vec<Session>,
    /// Session id → its index in `sessions`.
    slot: IdMap<u64, usize>,
    /// `(deadline, id)` of every retained session: expiry and pruning walk
    /// only the prefix whose deadline has passed.
    due: BTreeSet<(u64, u64)>,
    per_device: IdMap<DeviceId, DeviceSessions>,
}

impl SessionManager {
    /// A manager issuing challenges derived from `label`, with sessions
    /// valid for `ttl` logical ticks and a per-device anti-replay window
    /// remembering `window_cap` tags. Session ids count `0, 1, 2, …`.
    #[must_use]
    pub fn new(label: &[u8], ttl: u64, window_cap: usize) -> Self {
        Self::with_ids(label, ttl, window_cap, 0, 1)
    }

    /// Like [`SessionManager::new`] but allocating session ids on a stride
    /// (`first`, `first + stride`, …). A fleet of `N` shards gives shard
    /// `s` the parameters `(s, N)`, so `id % N` identifies the owning
    /// shard with no cross-shard counter.
    #[must_use]
    pub fn with_ids(label: &[u8], ttl: u64, window_cap: usize, first: u64, stride: u64) -> Self {
        Self {
            label: label.to_vec(),
            ttl,
            window_cap,
            next_id: first,
            first,
            stride: stride.max(1),
            boot_epoch: 0,
            sessions: Vec::new(),
            slot: IdMap::default(),
            due: BTreeSet::new(),
            per_device: IdMap::default(),
        }
    }

    /// Starts boot epoch `epoch`: every device's nonces and this manager's
    /// session ids restart at `(epoch, 0)`, above anything an earlier
    /// epoch issued, and the in-memory per-device state is dropped.
    pub(crate) fn start_boot_epoch(&mut self, epoch: u64) {
        self.boot_epoch = epoch;
        self.next_id = self.first + self.stride * (epoch << EPOCH_SHIFT);
        self.per_device.clear();
    }

    /// The session ttl this manager issues under.
    #[must_use]
    pub fn ttl(&self) -> u64 {
        self.ttl
    }

    /// The id the next issued session will carry.
    #[must_use]
    pub fn peek_next_id(&self) -> SessionId {
        SessionId(self.next_id)
    }

    /// The challenge `device` answers under for `nonce`:
    /// `H(fleet label ‖ device id)` bound with the nonce — unique per
    /// (fleet, device, round), and re-derivable at recovery so events
    /// never need to persist challenge bytes. The reference for
    /// [`SessionManager::install`], which keeps the first half per device.
    #[cfg(test)]
    pub(crate) fn derive_challenge(&self, device: DeviceId, nonce: u64) -> Challenge {
        Challenge::derive(&challenge_base(&self.label, device), nonce)
    }

    /// `device`'s session-layer state, created with its challenge base on
    /// the device's first issue, replayed verdict or submission since boot.
    fn per_device_mut(&mut self, device: DeviceId) -> &mut DeviceSessions {
        let label = &self.label;
        self.per_device.entry(device).or_insert_with(|| DeviceSessions {
            base: challenge_base(label, device),
            next_nonce: 0,
            window: ReplayWindow::default(),
        })
    }

    /// Installs a session with explicit coordinates — the apply half of
    /// issuance, driven both by the live [`SessionManager::issue`] path
    /// and by the replay of a logged verdict. Counters advance past the
    /// installed values so ids and nonces stay monotonic whichever path
    /// ran. A session already held under `id` is replaced.
    pub(crate) fn install(
        &mut self,
        id: SessionId,
        device: DeviceId,
        op: OpId,
        nonce: u64,
        issued_at: u64,
        deadline: u64,
    ) -> &Session {
        let per = self.per_device_mut(device);
        per.next_nonce = per.next_nonce.max(nonce.saturating_add(1));
        let challenge = Challenge::derive(&per.base, nonce);
        if id.0 >= self.next_id {
            self.next_id = id.0.saturating_add(self.stride);
        }
        let session = Session {
            id,
            device,
            op,
            nonce,
            challenge,
            issued_at,
            deadline,
            state: SessionState::Issued,
            report: None,
            proof: None,
        };
        let i = *self.slot.entry(id.0).or_insert(self.sessions.len());
        if i == self.sessions.len() {
            self.sessions.push(session);
        } else {
            let old = std::mem::replace(&mut self.sessions[i], session);
            self.due.remove(&(old.deadline, id.0));
        }
        self.due.insert((deadline, id.0));
        &self.sessions[i]
    }

    /// Issues a fresh challenge to `device` for `op` at logical time
    /// `now`, consuming the device's next nonce.
    pub fn issue(&mut self, device: DeviceId, op: OpId, now: u64) -> &Session {
        let id = SessionId(self.next_id);
        let nonce = self.next_nonce(device);
        self.install(id, device, op, nonce, now, now.saturating_add(self.ttl))
    }

    /// Validates a submission without mutating anything: the state
    /// machine, the deadline and the anti-replay window are all enforced
    /// here. Returns the session's operation on success.
    ///
    /// Submission is *not* authenticated beyond the device id it claims:
    /// the proof's MAC is only checked at drain time. An active network
    /// adversary who sees a challenge can therefore occupy its session
    /// with a garbage proof (the round then resolves `Rejected` and the
    /// operator re-issues) — equivalent in power to dropping the device's
    /// packets, and accepted here so the session layer stays free of
    /// per-submission cryptography (`tests/session_binding.rs` pins it).
    ///
    /// # Errors
    ///
    /// See [`SessionError`]. A missed deadline reports
    /// [`SessionError::Expired`] but leaves the flip to `Expired` to the
    /// next expiry sweep, so the check stays pure.
    pub fn check_submit(
        &self,
        session: SessionId,
        device: DeviceId,
        tag: &Digest,
        now: u64,
    ) -> Result<OpId, SessionError> {
        let s = self.session(session).ok_or(SessionError::UnknownSession(session))?;
        if s.device != device {
            return Err(SessionError::DeviceMismatch { expected: s.device, got: device });
        }
        match s.state {
            SessionState::Issued => {}
            state => return Err(SessionError::NotAwaitingProof(state)),
        }
        if now > s.deadline {
            return Err(SessionError::Expired { deadline: s.deadline });
        }
        if self.per_device.get(&device).is_some_and(|per| per.window.contains(tag)) {
            return Err(SessionError::ReplayedProof);
        }
        Ok(s.op)
    }

    /// Accepts `proof` for `session`: after [`SessionManager::check_submit`]
    /// it holds the proof, pushes its tag into the device's anti-replay
    /// window and marks the session `Submitted`. Returns the session's
    /// operation, whose ingest batch the proof joins.
    ///
    /// # Errors
    ///
    /// See [`SessionError`]; the session state is unchanged on error.
    pub fn submit(
        &mut self,
        session: SessionId,
        device: DeviceId,
        proof: DialedProof,
        now: u64,
    ) -> Result<OpId, SessionError> {
        self.submit_packed(session, device, PackedProof::pack(&proof.pox), now)
    }

    /// [`SessionManager::submit`] for a proof already in its packed form.
    pub(crate) fn submit_packed(
        &mut self,
        session: SessionId,
        device: DeviceId,
        proof: PackedProof,
        now: u64,
    ) -> Result<OpId, SessionError> {
        let op = self.check_submit(session, device, &proof.tag, now)?;
        let cap = self.window_cap;
        self.per_device_mut(device).window.push(proof.tag, cap);
        let s = self.session_mut(session).expect("checked above");
        s.state = SessionState::Submitted;
        s.proof = Some(proof);
        Ok(op)
    }

    /// Expires every `Issued` session whose deadline lies before `now`.
    /// Returns how many sessions flipped to `Expired`. Touches only the
    /// sessions whose deadline has passed.
    pub fn expire_due(&mut self, now: u64) -> usize {
        let mut flipped = 0;
        for (_, id) in self.due.range(..(now, 0)) {
            let s = &mut self.sessions[self.slot[id]];
            if s.state == SessionState::Issued {
                s.state = SessionState::Expired;
                flipped += 1;
            }
        }
        flipped
    }

    /// Expires every open (`Issued`/`Submitted`) session of `device` —
    /// the session-layer half of deregistration. Held proofs are dropped.
    /// Returns the flipped sessions as `(op, id)` pairs so the caller can
    /// purge any ingest-queue entries.
    pub(crate) fn expire_open_for(&mut self, device: DeviceId) -> Vec<(OpId, SessionId)> {
        let mut flipped = Vec::new();
        for s in &mut self.sessions {
            if s.device == device && s.is_open() {
                s.state = SessionState::Expired;
                s.proof = None;
                flipped.push((s.op, s.id));
            }
        }
        flipped
    }

    /// Resolves a session with the verifier's verdict — the apply half of
    /// draining. An unknown session is ignored.
    pub(crate) fn apply_verdict(&mut self, session: SessionId, report: Report) {
        let Some(s) = self.session_mut(session) else { return };
        s.state = if report.is_clean() { SessionState::Verified } else { SessionState::Rejected };
        s.proof = None;
        s.report = Some(report);
    }

    /// How many resolved sessions a prune at `now` would evict (pure peek).
    #[must_use]
    pub(crate) fn prunable(&self, now: u64) -> usize {
        self.due.range(..(now, 0)).filter(|(_, id)| !self.sessions[self.slot[id]].is_open()).count()
    }

    /// Evicts resolved sessions (`Verified`/`Rejected`/`Expired`) whose
    /// deadline lies before `now`, returning how many were removed. A
    /// long-running service calls this periodically so the session store
    /// stays proportional to the *open* rounds, not to history; session
    /// ids are never reused. Touches only the sessions whose deadline has
    /// passed.
    pub fn prune_resolved(&mut self, now: u64) -> usize {
        let later = self.due.split_off(&(now, 0));
        let passed = std::mem::replace(&mut self.due, later);
        let before = self.sessions.len();
        for key in passed {
            let i = self.slot[&key.1];
            if self.sessions[i].is_open() {
                self.due.insert(key);
            } else {
                // The last session moves into the freed slot.
                self.slot.remove(&key.1);
                self.sessions.swap_remove(i);
                if let Some(moved) = self.sessions.get(i) {
                    self.slot.insert(moved.id.0, i);
                }
            }
        }
        before - self.sessions.len()
    }

    /// Looks up a session.
    #[must_use]
    pub fn session(&self, id: SessionId) -> Option<&Session> {
        self.slot.get(&id.0).map(|&i| &self.sessions[i])
    }

    /// A session to update in place. Its deadline is indexed and must not
    /// change.
    pub(crate) fn session_mut(&mut self, id: SessionId) -> Option<&mut Session> {
        let i = *self.slot.get(&id.0)?;
        Some(&mut self.sessions[i])
    }

    /// All retained sessions in (deadline, id) order, which is issuance
    /// order under a monotone clock.
    pub fn sessions(&self) -> impl Iterator<Item = &Session> {
        self.due.iter().map(|(_, id)| &self.sessions[self.slot[id]])
    }

    /// Retained session count (open rounds plus not-yet-pruned history).
    #[must_use]
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// Whether no sessions are retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }

    /// The next nonce `device` would be issued (diagnostics/tests).
    #[must_use]
    pub fn next_nonce(&self, device: DeviceId) -> u64 {
        self.per_device.get(&device).map_or(self.boot_epoch << EPOCH_SHIFT, |p| p.next_nonce)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apex::{PoxConfig, PoxProof};
    use std::collections::BTreeMap;

    fn dummy_proof(tag_byte: u8) -> DialedProof {
        let cfg = PoxConfig::new(0xE000, 0xE00F, 0xE00E, 0x0600, 0x06FF).unwrap();
        DialedProof {
            pox: PoxProof { cfg, exec: true, or_data: vec![0; cfg.or_len()], tag: [tag_byte; 32] },
        }
    }

    const DEV: DeviceId = DeviceId(0);
    const OP: OpId = OpId(0);

    #[test]
    fn nonces_are_monotonic_and_challenges_unique() {
        let mut mgr = SessionManager::new(b"fleet-test", 10, 4);
        let c0 = mgr.issue(DEV, OP, 0).clone();
        let c1 = mgr.issue(DEV, OP, 1).clone();
        let other = mgr.issue(DeviceId(1), OP, 1).clone();
        assert_eq!((c0.nonce, c1.nonce), (0, 1));
        assert_ne!(c0.challenge, c1.challenge);
        assert_ne!(c0.challenge, other.challenge, "devices must not share challenges");
        assert_eq!(mgr.next_nonce(DEV), 2);
    }

    /// The challenge bytes of `H(label ‖ device)` bound with the nonce,
    /// pinned in hex: a memo or a rewrite of the derivation must keep them.
    #[test]
    fn challenge_derivation_known_answers() {
        let mgr = SessionManager::new(b"dialed-fleet", 10, 4);
        let hex =
            |c: Challenge| -> String { c.as_bytes().iter().map(|b| format!("{b:02x}")).collect() };
        let late = (3 << EPOCH_SHIFT) + 7;
        let cases = [
            (0, 0, "a624e6ee3eeb44a93c82a98c71d74090605d92464cd64ccd614d731718142701"),
            (0, late, "2d595b6e909762b98b9d0cf2d7cd5f113e377d08d12fb9d0989c9a76d96365ce"),
            (12345, 0, "6062fd2da79429948287ddd07b23142c97d88e56c258ff4bc61559f418e5c475"),
            (12345, late, "4fb1e53cae567173b5926a28251903d08cdc42505b802ebdb85e84a439d73cf7"),
        ];
        for (device, nonce, want) in cases {
            let got = hex(mgr.derive_challenge(DeviceId(device), nonce));
            assert_eq!(got, want, "device {device}, nonce {nonce}");
        }
    }

    /// Every session issued live, or rebuilt by the replay of a verdict,
    /// carries exactly the reference derivation's challenge, across boot
    /// epochs.
    #[test]
    fn issued_and_replayed_challenges_match_the_reference() {
        let mut live = SessionManager::with_ids(b"dialed-fleet", 10, 4, 1, 3);
        let mut replayed = SessionManager::with_ids(b"dialed-fleet", 10, 4, 1, 3);
        for epoch in 0..3 {
            live.start_boot_epoch(epoch);
            replayed.start_boot_epoch(epoch);
            for i in 0..1500u64 {
                let device = DeviceId((i * 7919) % 97);
                let s = live.issue(device, OP, i).clone();
                assert_eq!(s.challenge, live.derive_challenge(device, s.nonce), "issue {i}");
                let r = replayed.install(s.id, device, OP, s.nonce, s.issued_at, s.deadline);
                assert_eq!(r.challenge, s.challenge, "replay {i}");
            }
        }
    }

    #[test]
    fn strided_ids_encode_the_shard() {
        // Shard 2 of 5: ids 2, 7, 12, … — id % 5 routes back to the shard.
        let mut mgr = SessionManager::with_ids(b"t", 10, 4, 2, 5);
        let ids: Vec<u64> = (0..3).map(|_| mgr.issue(DEV, OP, 0).id.0).collect();
        assert_eq!(ids, vec![2, 7, 12]);
        assert!(ids.iter().all(|id| id % 5 == 2));
        assert_eq!(mgr.peek_next_id(), SessionId(17));
    }

    #[test]
    fn a_boot_epoch_restarts_nonces_and_ids_above_the_last() {
        // Shard 2 of 5 issues, then starts boot epoch 1.
        let mut mgr = SessionManager::with_ids(b"t", 10, 4, 2, 5);
        let old = mgr.issue(DEV, OP, 0).clone();
        mgr.submit(old.id, DEV, dummy_proof(1), 1).unwrap();
        mgr.start_boot_epoch(1);
        let new = mgr.issue(DEV, OP, 2).clone();
        assert_eq!((old.nonce, new.nonce), (0, 1 << EPOCH_SHIFT));
        assert_eq!(new.id.0, 2 + 5 * (1 << EPOCH_SHIFT));
        assert_eq!(new.id.0 % 5, 2, "ids still route to their shard");
        assert_ne!(new.challenge, old.challenge);
        // The replay window is per boot: the old tag passes the session
        // layer and fails on the MAC under the new challenge.
        mgr.submit(new.id, DEV, dummy_proof(1), 3).unwrap();
    }

    #[test]
    fn install_replays_to_identical_state() {
        // Replaying the coordinates of a live issue through install()
        // reproduces the same session, challenge included, and leaves the
        // counters where the live path left them.
        let mut live = SessionManager::new(b"t", 10, 4);
        let s = live.issue(DEV, OP, 3).clone();
        let mut replayed = SessionManager::new(b"t", 10, 4);
        let r = replayed.install(s.id, s.device, s.op, s.nonce, s.issued_at, s.deadline).clone();
        assert_eq!(r.challenge, s.challenge);
        assert_eq!(r.deadline, s.deadline);
        assert_eq!(replayed.peek_next_id(), live.peek_next_id());
        assert_eq!(replayed.next_nonce(DEV), live.next_nonce(DEV));
    }

    #[test]
    fn happy_path_walks_issued_to_submitted() {
        let mut mgr = SessionManager::new(b"t", 10, 4);
        let sid = mgr.issue(DEV, OP, 0).id;
        mgr.submit(sid, DEV, dummy_proof(1), 5).unwrap();
        assert_eq!(mgr.session(sid).unwrap().state, SessionState::Submitted);
    }

    #[test]
    fn duplicate_submission_rejected_state_unchanged() {
        let mut mgr = SessionManager::new(b"t", 10, 4);
        let sid = mgr.issue(DEV, OP, 0).id;
        mgr.submit(sid, DEV, dummy_proof(1), 1).unwrap();
        let err = mgr.submit(sid, DEV, dummy_proof(2), 2).unwrap_err();
        assert_eq!(err, SessionError::NotAwaitingProof(SessionState::Submitted));
        assert_eq!(mgr.session(sid).unwrap().state, SessionState::Submitted);
    }

    #[test]
    fn replayed_tag_rejected_across_sessions() {
        let mut mgr = SessionManager::new(b"t", 10, 4);
        let s0 = mgr.issue(DEV, OP, 0).id;
        mgr.submit(s0, DEV, dummy_proof(7), 1).unwrap();
        // The same captured proof against a *new* session must die at the
        // session layer.
        let s1 = mgr.issue(DEV, OP, 2).id;
        assert_eq!(mgr.submit(s1, DEV, dummy_proof(7), 3), Err(SessionError::ReplayedProof));
        assert_eq!(mgr.session(s1).unwrap().state, SessionState::Issued);
        // Another device may legitimately produce an identical-tag proof
        // (it cannot in practice, but windows are per-device).
        let s2 = mgr.issue(DeviceId(1), OP, 2).id;
        mgr.submit(s2, DeviceId(1), dummy_proof(7), 3).unwrap();
    }

    #[test]
    fn replay_window_is_bounded_and_sliding() {
        let mut mgr = SessionManager::new(b"t", 100, 2);
        for i in 0..3u8 {
            let sid = mgr.issue(DEV, OP, 0).id;
            mgr.submit(sid, DEV, dummy_proof(i), 1).unwrap();
        }
        // Tag 0 slid out of the 2-deep window; tag 2 is still inside.
        let s_old = mgr.issue(DEV, OP, 2).id;
        mgr.submit(s_old, DEV, dummy_proof(0), 3).unwrap();
        let s_new = mgr.issue(DEV, OP, 2).id;
        assert_eq!(mgr.submit(s_new, DEV, dummy_proof(2), 3), Err(SessionError::ReplayedProof));
    }

    #[test]
    fn zero_window_cap_still_blocks_the_immediate_replay() {
        // A degenerate window_cap of 0 clamps to a depth of one: the most
        // recently accepted tag is always remembered, so the cheapest
        // replay (same proof, next session) can never slip through a
        // misconfigured fleet.
        let mut mgr = SessionManager::new(b"t", 100, 0);
        let s0 = mgr.issue(DEV, OP, 0).id;
        mgr.submit(s0, DEV, dummy_proof(9), 1).unwrap();
        let s1 = mgr.issue(DEV, OP, 1).id;
        assert_eq!(mgr.submit(s1, DEV, dummy_proof(9), 2), Err(SessionError::ReplayedProof));
        // A different tag displaces the only slot…
        mgr.submit(s1, DEV, dummy_proof(10), 2).unwrap();
        // …after which the depth-1 window has forgotten tag 9.
        let s2 = mgr.issue(DEV, OP, 3).id;
        mgr.submit(s2, DEV, dummy_proof(9), 4).unwrap();
    }

    #[test]
    fn deadline_expires_sessions() {
        let mut mgr = SessionManager::new(b"t", 5, 4);
        let sid = mgr.issue(DEV, OP, 10).id;
        assert_eq!(mgr.session(sid).unwrap().deadline, 15);
        // Late submission is rejected; the flip to Expired is the expiry
        // sweep's job (checks are pure so they can sit before the WAL).
        let err = mgr.submit(sid, DEV, dummy_proof(1), 16).unwrap_err();
        assert_eq!(err, SessionError::Expired { deadline: 15 });
        assert_eq!(mgr.session(sid).unwrap().state, SessionState::Issued);
        assert_eq!(mgr.expire_due(16), 1);
        assert_eq!(mgr.session(sid).unwrap().state, SessionState::Expired);
        // Sweep-based expiry for sessions nobody ever answers.
        let s2 = mgr.issue(DEV, OP, 20).id;
        assert_eq!(mgr.expire_due(100), 1);
        assert_eq!(mgr.session(s2).unwrap().state, SessionState::Expired);
    }

    #[test]
    fn deadline_boundary_is_inclusive() {
        // deadline == now is still in time, for both the submit check and
        // the sweep: expiry requires now to lie strictly past the deadline.
        let mut mgr = SessionManager::new(b"t", 5, 4);
        let sid = mgr.issue(DEV, OP, 0).id;
        assert_eq!(mgr.session(sid).unwrap().deadline, 5);
        assert_eq!(mgr.expire_due(5), 0, "a sweep exactly at the deadline expires nothing");
        mgr.submit(sid, DEV, dummy_proof(1), 5).unwrap();
        assert_eq!(mgr.session(sid).unwrap().state, SessionState::Submitted);
    }

    #[test]
    fn pruning_evicts_only_resolved_history() {
        let mut mgr = SessionManager::new(b"t", 5, 4);
        let resolved = mgr.issue(DEV, OP, 0).id;
        mgr.submit(resolved, DEV, dummy_proof(1), 1).unwrap();
        mgr.session_mut(resolved).unwrap().state = SessionState::Verified;
        let expired = mgr.issue(DEV, OP, 0).id;
        mgr.expire_due(100);
        let open = mgr.issue(DEV, OP, 100).id;
        assert_eq!(mgr.len(), 3);

        assert_eq!(mgr.prunable(200), 2);
        assert_eq!(mgr.prune_resolved(200), 2);
        assert!(mgr.session(resolved).is_none());
        assert!(mgr.session(expired).is_none());
        assert_eq!(mgr.session(open).unwrap().state, SessionState::Issued);
        // Ids keep advancing — a pruned id is never reissued.
        assert!(mgr.issue(DEV, OP, 100).id.0 > open.0);
    }

    #[test]
    fn prune_boundary_retains_deadline_equal_to_now() {
        // A resolved session whose deadline is exactly `now` survives the
        // prune (eviction requires deadline strictly before now), so an
        // operator polling at the deadline tick can still read the report.
        let mut mgr = SessionManager::new(b"t", 5, 4);
        let sid = mgr.issue(DEV, OP, 0).id; // deadline = 5
        mgr.submit(sid, DEV, dummy_proof(1), 1).unwrap();
        mgr.session_mut(sid).unwrap().state = SessionState::Rejected;
        assert_eq!(mgr.prunable(5), 0);
        assert_eq!(mgr.prune_resolved(5), 0);
        assert!(mgr.session(sid).is_some());
        assert_eq!(mgr.prunable(6), 1);
        assert_eq!(mgr.prune_resolved(6), 1);
        assert!(mgr.session(sid).is_none());
    }

    #[test]
    fn deregistration_expires_open_sessions_only() {
        let mut mgr = SessionManager::new(b"t", 10, 4);
        let done = mgr.issue(DEV, OP, 0).id;
        mgr.submit(done, DEV, dummy_proof(1), 1).unwrap();
        mgr.apply_verdict(done, Report::clean(Default::default()));
        let open = mgr.issue(DEV, OP, 2).id;
        let pending = mgr.issue(DEV, OP, 2).id;
        mgr.submit(pending, DEV, dummy_proof(2), 3).unwrap();
        let other = mgr.issue(DeviceId(9), OP, 2).id;

        let flipped = mgr.expire_open_for(DEV);
        assert_eq!(flipped.len(), 2);
        assert!(flipped.iter().any(|&(_, sid)| sid == pending));
        assert_eq!(mgr.session(open).unwrap().state, SessionState::Expired);
        assert_eq!(mgr.session(pending).unwrap().state, SessionState::Expired);
        assert!(mgr.session(pending).unwrap().proof.is_none(), "held proof dropped");
        assert_eq!(mgr.session(done).unwrap().state, SessionState::Verified);
        assert_eq!(mgr.session(other).unwrap().state, SessionState::Issued);
    }

    /// A session's observable bookkeeping: device, deadline and state.
    type View = BTreeMap<u64, (DeviceId, u64, SessionState)>;

    fn view(mgr: &SessionManager) -> View {
        let view: View =
            mgr.sessions().map(|s| (s.id.0, (s.device, s.deadline, s.state))).collect();
        assert_eq!(view.len(), mgr.len(), "sessions() yields each retained session once");
        view
    }

    fn is_open(state: SessionState) -> bool {
        matches!(state, SessionState::Issued | SessionState::Submitted)
    }

    #[test]
    fn expiry_and_pruning_match_a_full_scan_under_any_clock() {
        let mut mgr = SessionManager::with_ids(b"t", 8, 4, 1, 3);
        // A resolved session behind an open one with an earlier id: a walk
        // that stops at the first open session never reaches it.
        let open = mgr.issue(DEV, OP, 0).id;
        let done = mgr.issue(DEV, OP, 0).id;
        mgr.submit(done, DEV, dummy_proof(1), 0).unwrap();
        mgr.apply_verdict(done, Report::clean(Default::default()));
        assert_eq!((mgr.prunable(20), mgr.prune_resolved(20)), (1, 1));
        assert!(mgr.session(done).is_none());
        assert_eq!(mgr.session(open).unwrap().state, SessionState::Issued);

        // A seeded walk whose clock mostly advances and sometimes jumps
        // back, with replay-style installs in non-id order. Every call is
        // checked against a full scan of sessions() taken just before it.
        let mut seed = 0x5EED_u64;
        let mut rand = |n: u64| {
            seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % n
        };
        let (mut now, mut tag) = (0u64, 0u64);
        for step in 0..2000 {
            now = if rand(10) == 0 { now.saturating_sub(rand(60)) } else { now + rand(4) };
            let before = view(&mgr);
            let mut want = before.clone();
            let ids: Vec<u64> = before.keys().copied().collect();
            let pick = |r: u64| ids.get(r as usize % ids.len().max(1)).copied();
            match rand(9) {
                0 | 1 => {
                    let device = DeviceId(rand(4));
                    let s = mgr.issue(device, OP, now);
                    assert!(!before.contains_key(&s.id.0), "step {step}: id reused");
                    want.insert(s.id.0, (device, now + 8, SessionState::Issued));
                }
                2 => {
                    // Replay installs: ids far ahead of or among the live
                    // ones, deadlines unrelated to id order; sometimes
                    // over a retained id.
                    let id = match pick(rand(1 << 20)) {
                        Some(id) if rand(4) == 0 => id,
                        _ => 1 + 3 * (mgr.peek_next_id().0 / 3 + rand(50)),
                    };
                    let (device, issued_at) = (DeviceId(rand(4)), rand(200));
                    let deadline = issued_at + rand(16);
                    mgr.install(SessionId(id), device, OP, tag, issued_at, deadline);
                    tag += 1;
                    want.insert(id, (device, deadline, SessionState::Issued));
                }
                3 | 4 => {
                    let Some(id) = pick(rand(1 << 20)) else { continue };
                    let (device, deadline, state) = before[&id];
                    let mut bytes = [0u8; 32];
                    bytes[..8].copy_from_slice(&tag.to_le_bytes());
                    tag += 1;
                    let mut proof = dummy_proof(0);
                    proof.pox.tag = bytes;
                    let ok = mgr.submit(SessionId(id), device, proof, now).is_ok();
                    let accept = state == SessionState::Issued && now <= deadline;
                    assert_eq!(ok, accept, "step {step}: submit {id} at {now}");
                    if accept {
                        want.insert(id, (device, deadline, SessionState::Submitted));
                    }
                }
                5 => {
                    let Some(id) = pick(rand(1 << 20)) else { continue };
                    let clean = rand(2) == 0;
                    let report = if clean {
                        Report::clean(Default::default())
                    } else {
                        Report::rejected(SessionError::ReplayedProof)
                    };
                    mgr.apply_verdict(SessionId(id), report);
                    let state = if clean { SessionState::Verified } else { SessionState::Rejected };
                    want.get_mut(&id).unwrap().2 = state;
                }
                6 => {
                    let mut flipped = 0;
                    for (_, deadline, state) in want.values_mut() {
                        if *state == SessionState::Issued && *deadline < now {
                            *state = SessionState::Expired;
                            flipped += 1;
                        }
                    }
                    assert_eq!(mgr.expire_due(now), flipped, "step {step}: expire at {now}");
                }
                7 => {
                    if rand(8) == 0 {
                        let device = DeviceId(rand(4));
                        let flipped = mgr.expire_open_for(device).len();
                        let mut open = 0;
                        for (d, _, state) in want.values_mut() {
                            if *d == device && is_open(*state) {
                                *state = SessionState::Expired;
                                open += 1;
                            }
                        }
                        assert_eq!(flipped, open, "step {step}: deregister {device}");
                    }
                }
                _ => {
                    want.retain(|_, (_, deadline, state)| is_open(*state) || *deadline >= now);
                    let evicted = before.len() - want.len();
                    assert_eq!(mgr.prunable(now), evicted, "step {step}: prunable at {now}");
                    assert_eq!(mgr.prune_resolved(now), evicted, "step {step}: prune at {now}");
                }
            }
            assert_eq!(view(&mgr), want, "step {step} at t={now}");
        }
    }

    #[test]
    fn wrong_device_cannot_submit() {
        let mut mgr = SessionManager::new(b"t", 10, 4);
        let sid = mgr.issue(DEV, OP, 0).id;
        let err = mgr.submit(sid, DeviceId(9), dummy_proof(1), 1).unwrap_err();
        assert_eq!(err, SessionError::DeviceMismatch { expected: DEV, got: DeviceId(9) });
        assert_eq!(
            mgr.submit(SessionId(99), DEV, dummy_proof(1), 1),
            Err(SessionError::UnknownSession(SessionId(99)))
        );
    }
}
