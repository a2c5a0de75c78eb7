//! Lockstep model test. [`Model`] is a reference for the registry, the
//! session state machine and anti-replay, in plain maps: no shards, log,
//! batching or sockets. Seeded random schedules drive it and a real
//! [`Fleet`] with the same operations: in memory, and durable with forced
//! compactions and crash-recoveries at random points. Any difference in a
//! verdict, a `SessionError`, a `RejectClass`, a session state or a device
//! counter fails the schedule, which its seed replays.

use dialed::attest::{DialedDevice, DialedProof};
use dialed::pipeline::{BuildOptions, InstrumentedOp};
use dialed::report::{Finding, RejectClass};
use fleet::{
    CatalogFn, DeviceId, Fleet, FleetConfig, OpId, RegistryError, SessionError, SessionId,
    SessionState,
};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::path::PathBuf;
use vrased::Challenge;

// ------------------------------------------------------------------ model

/// A proof as the model sees it: the session whose challenge it answers
/// and the device whose key made it. No two sessions share a challenge,
/// so distinct pairs carry distinct tags.
type ProofId = (SessionId, DeviceId);

#[derive(Clone, Debug, PartialEq)]
struct Device {
    epoch: u64,
    last_verified: Option<u64>,
    verified: u64,
    rejected: u64,
}

struct Session {
    device: DeviceId,
    nonce: u64,
    deadline: u64,
    state: SessionState,
    proof: Option<ProofId>,
}

/// The reference service. Session ids come from the fleet (they encode
/// its sharding); everything else the model decides itself.
struct Model {
    ttl: u64,
    window_cap: usize,
    epoch: u64,
    /// Restarts so far: the boot epoch nonces are issued under.
    boot: u64,
    next_device: u64,
    devices: BTreeMap<DeviceId, Device>,
    sessions: BTreeMap<SessionId, Session>,
    next_nonce: HashMap<DeviceId, u64>,
    windows: HashMap<DeviceId, VecDeque<ProofId>>,
}

impl Model {
    fn new(ttl: u64, window_cap: usize) -> Self {
        Self {
            ttl,
            window_cap: window_cap.max(1),
            epoch: 0,
            boot: 0,
            next_device: 0,
            devices: BTreeMap::new(),
            sessions: BTreeMap::new(),
            next_nonce: HashMap::new(),
            windows: HashMap::new(),
        }
    }

    fn register(&mut self) -> DeviceId {
        let d = DeviceId(self.next_device);
        self.next_device += 1;
        let rec = Device { epoch: self.epoch, last_verified: None, verified: 0, rejected: 0 };
        self.devices.insert(d, rec);
        d
    }

    fn deregister(&mut self, d: DeviceId) -> Result<usize, RegistryError> {
        self.devices.remove(&d).ok_or(RegistryError::UnknownDevice(d))?;
        let open = self.sessions.values_mut().filter(|s| s.device == d && is_open(s.state));
        Ok(open.map(|s| (s.state, s.proof) = (SessionState::Expired, None)).count())
    }

    fn issue(&mut self, id: SessionId, d: DeviceId, now: u64) -> Result<u64, RegistryError> {
        if !self.devices.contains_key(&d) {
            return Err(RegistryError::UnknownDevice(d));
        }
        let next = self.next_nonce.entry(d).or_insert(self.boot << 40);
        let nonce = *next;
        *next += 1;
        let deadline = now + self.ttl;
        let s = Session { device: d, nonce, deadline, state: SessionState::Issued, proof: None };
        assert!(self.sessions.insert(id, s).is_none(), "{id} issued twice");
        Ok(nonce)
    }

    fn submit(
        &mut self,
        id: SessionId,
        d: DeviceId,
        p: ProofId,
        now: u64,
    ) -> Result<(), SessionError> {
        let s = self.sessions.get_mut(&id).ok_or(SessionError::UnknownSession(id))?;
        if s.device != d {
            return Err(SessionError::DeviceMismatch { expected: s.device, got: d });
        }
        if s.state != SessionState::Issued {
            return Err(SessionError::NotAwaitingProof(s.state));
        }
        if now > s.deadline {
            return Err(SessionError::Expired { deadline: s.deadline });
        }
        let window = self.windows.entry(d).or_default();
        if window.contains(&p) {
            return Err(SessionError::ReplayedProof);
        }
        if window.len() == self.window_cap {
            window.pop_front();
        }
        window.push_back(p);
        (s.state, s.proof) = (SessionState::Submitted, Some(p));
        Ok(())
    }

    fn expire(&mut self, now: u64) -> usize {
        let due = self.sessions.values_mut().filter(|s| s.state == SessionState::Issued);
        due.filter(|s| now > s.deadline).map(|s| s.state = SessionState::Expired).count()
    }

    /// Settles every submitted session: clean iff its proof is the one its
    /// own device made for its own challenge.
    fn verify_pending(&mut self) -> BTreeMap<SessionId, bool> {
        let mut verdicts = BTreeMap::new();
        for (&id, s) in &mut self.sessions {
            if s.state != SessionState::Submitted {
                continue;
            }
            let clean = s.proof.take() == Some((id, s.device));
            let dev = self.devices.get_mut(&s.device).expect("open sessions have a device");
            if clean {
                s.state = SessionState::Verified;
                dev.verified += 1;
                dev.last_verified = dev.last_verified.max(Some(s.nonce));
            } else {
                s.state = SessionState::Rejected;
                dev.rejected += 1;
            }
            verdicts.insert(id, clean);
        }
        verdicts
    }

    fn prune(&mut self, now: u64) -> usize {
        let before = self.sessions.len();
        self.sessions.retain(|_, s| is_open(s.state) || s.deadline >= now);
        before - self.sessions.len()
    }

    /// A restart of a durable fleet. Devices, their counters and resolved
    /// sessions survive; open and expired sessions and the replay windows
    /// are forgotten, and nonces restart at the next boot epoch.
    fn crash(&mut self) {
        self.boot += 1;
        self.sessions
            .retain(|_, s| matches!(s.state, SessionState::Verified | SessionState::Rejected));
        self.windows.clear();
        self.next_nonce.clear();
    }
}

fn is_open(state: SessionState) -> bool {
    matches!(state, SessionState::Issued | SessionState::Submitted)
}

// ---------------------------------------------------------------- harness

const OP_SRC: &str = "\
    .org 0xE000\nop:\n mov r15, r10\n add r14, r10\n mov r10, &0x0060\n ret\n";

const TTL: u64 = 6;
const WINDOW: usize = 3;
const STEPS: usize = 60;

fn config() -> FleetConfig {
    FleetConfig {
        challenge_ttl: TTL,
        replay_window: WINDOW,
        workers: Some(1),
        shards: 3,
        ..FleetConfig::default()
    }
}

fn build_op() -> InstrumentedOp {
    InstrumentedOp::build(OP_SRC, "op", &BuildOptions::default()).unwrap()
}

fn catalog() -> impl fleet::OpCatalog {
    CatalogFn(|name: &str| (name == "op").then(|| (build_op(), vec![])))
}

/// SplitMix64: a seeded, dependency-free schedule source.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// The rejection class of a report, `None` when it is clean.
fn class_of(report: &dialed::report::Report) -> Option<RejectClass> {
    match report.findings.first() {
        _ if report.is_clean() => None,
        Some(Finding::PoxRejected { reason }) => Some(reason.class()),
        other => panic!("unexpected finding {other:?}"),
    }
}

/// One schedule: the fleet, the model, and the device simulators and
/// challenges the schedule has made so far.
struct Harness {
    fleet: Fleet,
    model: Model,
    dir: Option<PathBuf>,
    op: OpId,
    rng: Rng,
    now: u64,
    sims: BTreeMap<DeviceId, DialedDevice>,
    /// Every challenge issued, in issue order.
    issued: Vec<(SessionId, DeviceId, Challenge)>,
    /// Every proof made, with what the model knows of it.
    proofs: Vec<(ProofId, DialedProof)>,
}

impl Harness {
    fn new(seed: u64, durable: bool) -> Self {
        let dir = durable.then(|| {
            let dir = std::env::temp_dir()
                .join(format!("dialed-model-test-{}-{seed}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            dir
        });
        let mut fleet = match &dir {
            Some(dir) => Fleet::durable(dir, config()).unwrap(),
            None => Fleet::new(config()),
        };
        let op = fleet.register_op("op", build_op(), vec![]);
        Self {
            fleet,
            model: Model::new(TTL, WINDOW),
            dir,
            op,
            rng: Rng(seed),
            now: 0,
            sims: BTreeMap::new(),
            issued: Vec::new(),
            proofs: Vec::new(),
        }
    }

    /// A device the schedule has registered (possibly deregistered since).
    fn any_device(&mut self) -> Option<DeviceId> {
        let n = self.sims.len();
        (n > 0).then(|| *self.sims.keys().nth(self.rng.below(n)).unwrap())
    }

    /// An issued session, usually a recent one.
    fn any_session(&mut self) -> Option<(SessionId, DeviceId, Challenge)> {
        let n = self.issued.len();
        if n == 0 {
            return None;
        }
        let i = if self.rng.below(4) > 0 {
            n - 1 - self.rng.below(n.min(6))
        } else {
            self.rng.below(n)
        };
        Some(self.issued[i])
    }

    /// `signer`'s proof for the challenge of `session`.
    fn prove(&mut self, session: SessionId, signer: DeviceId, chal: &Challenge) -> DialedProof {
        let proof = self.sims[&signer].prove(chal);
        self.proofs.push(((session, signer), proof.clone()));
        proof
    }

    fn submit(&mut self, session: SessionId, claimed: DeviceId, p: ProofId, proof: DialedProof) {
        let got = self.fleet.submit(session, claimed, proof, self.now);
        let want = self.model.submit(session, claimed, p, self.now);
        assert_eq!(got, want, "submit of {p:?} to {session} as {claimed} at t={}", self.now);
    }

    fn step(&mut self) {
        match self.rng.below(100) {
            0..=9 => {
                let seed = self.rng.next();
                let got = self.fleet.register_device(self.op, seed).unwrap();
                assert_eq!(got, self.model.register(), "device ids");
                let keys = self.fleet.device_keystore(got).unwrap();
                let mut sim = DialedDevice::new(build_op(), keys);
                sim.invoke(&[0, 0, 0, 0, 0, 0, 2, 3]);
                self.sims.insert(got, sim);
            }
            10..=29 => {
                let Some(d) = self.any_device() else { return };
                let got = self.fleet.issue(d, self.now);
                let sid = got.as_ref().map_or(SessionId(u64::MAX), |c| SessionId(c.session));
                let want = self.model.issue(sid, d, self.now);
                assert_eq!(got.as_ref().map(|c| c.nonce), want.as_ref().copied(), "issue to {d}");
                if let Ok(c) = got {
                    self.issued.push((sid, d, c.challenge));
                }
            }
            30..=49 => {
                // The honest answer, sometimes late or a second time.
                let Some((sid, d, chal)) = self.any_session() else { return };
                let proof = self.prove(sid, d, &chal);
                self.submit(sid, d, (sid, d), proof);
            }
            50..=57 => {
                // A captured proof replayed to a session of its device.
                let n = self.proofs.len();
                if n == 0 {
                    return;
                }
                let (p, proof) = self.proofs[self.rng.below(n)].clone();
                let mine: Vec<_> = self.issued.iter().filter(|s| s.1 == p.1).collect();
                if mine.is_empty() {
                    return;
                }
                let (sid, d, _) = *mine[self.rng.below(mine.len())];
                self.submit(sid, d, p, proof);
            }
            58..=62 => {
                // Another device's key over this session's challenge, or a
                // submission that names the wrong device.
                let (Some((sid, d, chal)), Some(other)) = (self.any_session(), self.any_device())
                else {
                    return;
                };
                let proof = self.prove(sid, other, &chal);
                let claimed = if self.rng.below(2) == 0 { d } else { other };
                self.submit(sid, claimed, (sid, other), proof);
            }
            63..=64 => {
                let (Some(d), Some((_, proof))) = (self.any_device(), self.proofs.last().cloned())
                else {
                    return;
                };
                let sid = SessionId(u64::MAX - self.rng.below(3) as u64);
                self.submit(sid, d, (sid, d), proof);
            }
            65..=74 => self.now += 1 + self.rng.below(3) as u64,
            75..=79 => assert_eq!(self.fleet.expire(self.now), self.model.expire(self.now)),
            80..=87 => {
                let mut settled = Vec::new();
                let stats = self.fleet.verify_pending(&mut settled);
                let want = self.model.verify_pending();
                settled.sort();
                assert_eq!(settled, want.keys().copied().collect::<Vec<_>>(), "settled sessions");
                let clean = want.values().filter(|&&c| c).count();
                assert_eq!((stats.verified, stats.rejected), (clean, want.len() - clean));
                for (sid, clean) in want {
                    let report = self.fleet.session(sid).unwrap().report.as_ref().unwrap();
                    let class = (!clean).then_some(RejectClass::Mac);
                    assert_eq!(class_of(report), class, "verdict of {sid}");
                }
            }
            88..=91 => {
                let now = self.now;
                assert_eq!(self.fleet.prune_resolved(now), self.model.prune(now), "prune at {now}");
            }
            92..=93 => {
                let Some(d) = self.any_device() else { return };
                assert_eq!(self.fleet.deregister_device(d), self.model.deregister(d), "deregister");
            }
            94 => {
                self.model.epoch += 1;
                assert_eq!(self.fleet.rotate_provisioning_epoch(), self.model.epoch);
            }
            95..=96 if self.dir.is_some() => self.fleet.snapshot().unwrap(),
            97..=99 if self.dir.is_some() => self.crash(),
            _ => {}
        }
    }

    /// Drops the fleet without shutdown and recovers it from its files.
    fn crash(&mut self) {
        let dir = self.dir.clone().expect("durable schedule");
        // Drop the running fleet first, as a crash would.
        self.fleet = Fleet::new(config());
        self.fleet = Fleet::recover(&dir, config(), &catalog()).unwrap();
        self.model.crash();
    }

    /// Compares every session and device the model knows, and checks the
    /// fleet knows no session the model forgot.
    fn compare(&self) {
        for &(sid, ..) in &self.issued {
            let got = self.fleet.session(sid).map(|s| (s.device, s.nonce, s.deadline, s.state));
            let want =
                self.model.sessions.get(&sid).map(|s| (s.device, s.nonce, s.deadline, s.state));
            assert_eq!(got, want, "{sid} at t={}", self.now);
        }
        for d in (0..self.model.next_device).map(DeviceId) {
            let got = self.fleet.device(d).ok().map(|r| Device {
                epoch: r.epoch(),
                last_verified: r.last_verified,
                verified: r.verified,
                rejected: r.rejected,
            });
            assert_eq!(got.as_ref(), self.model.devices.get(&d), "{d}");
        }
        let submitted = self.model.sessions.values();
        let submitted = submitted.filter(|s| s.state == SessionState::Submitted).count();
        assert_eq!(self.fleet.pending(), submitted, "queued submissions");
    }
}

impl Drop for Harness {
    fn drop(&mut self) {
        if let Some(dir) = &self.dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

fn run(seed: u64, durable: bool) {
    let mut h = Harness::new(seed, durable);
    for step in 0..STEPS {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            h.step();
            h.compare();
        }));
        if let Err(e) = result {
            eprintln!("schedule seed {seed} (durable: {durable}) diverged at step {step}");
            std::panic::resume_unwind(e);
        }
    }
}

#[test]
fn in_memory_fleet_matches_the_model() {
    for seed in 0..300 {
        run(seed, false);
    }
}

#[test]
fn durable_fleet_matches_the_model_across_crashes() {
    for seed in 0..300 {
        run(seed, true);
    }
}

/// A one-shard fleet's segment holding one record of each kind a shard
/// logs — its boot record, four registrations, a verdict batch of four, a
/// prune sweep and a deregistration — is cut at every byte offset.
/// Recovery must land on the state the model reaches by replaying the
/// operations whose records survive and then crashing, and a second
/// restart must keep it.
#[test]
fn every_offset_of_each_record_kind_recovers_a_model_prefix() {
    let config = FleetConfig { shards: 1, ..config() };
    let tmp = |name: &str| {
        std::env::temp_dir().join(format!("dialed-model-{name}-{}", std::process::id()))
    };
    let base = tmp("torn-base");
    let _ = std::fs::remove_dir_all(&base);
    let mut fleet = Fleet::durable(&base, config.clone()).unwrap();
    let op = fleet.register_op("op", build_op(), vec![]);
    let devs: Vec<_> = (0..4).map(|seed| fleet.register_device(op, seed).unwrap()).collect();
    // Two sessions prunable at t=10, two not.
    let mut issued = Vec::new();
    for (i, &d) in devs.iter().enumerate() {
        let mut sim = DialedDevice::new(build_op(), fleet.device_keystore(d).unwrap());
        sim.invoke(&[0, 0, 0, 0, 0, 0, 2, 3]);
        let now = if i < 2 { 0 } else { 10 };
        let chal = fleet.issue(d, now).unwrap();
        fleet.submit(SessionId(chal.session), d, sim.prove(&chal.challenge), now).unwrap();
        issued.push((SessionId(chal.session), d, chal.challenge, now));
    }
    assert_eq!(fleet.verify_pending(&mut Vec::new()).verified, 4);
    assert_eq!(fleet.prune_resolved(10), 2);
    fleet.deregister_device(devs[3]).unwrap();
    drop(fleet);

    let segment = std::fs::read(base.join("shard-0").join("wal-0.log")).unwrap();
    let mut ends = Vec::new();
    let mut pos = 5;
    while pos < segment.len() {
        pos += 8 + u32::from_le_bytes(segment[pos..pos + 4].try_into().unwrap()) as usize;
        ends.push(pos);
    }
    assert_eq!(ends.len(), 11, "boot, 4 registrations, 4 verdicts, prune, deregistration");

    let dir = tmp("torn-cut");
    for cut in 0..=segment.len() {
        // The model replays the operations whose records are whole.
        let whole = ends.iter().filter(|&&end| end <= cut).count();
        let mut model = Model::new(TTL, WINDOW);
        for _ in 0..whole.saturating_sub(1).min(4) {
            model.register();
        }
        for &(sid, d, _, now) in &issued[..whole.saturating_sub(5).min(4)] {
            model.issue(sid, d, now).unwrap();
            model.submit(sid, d, (sid, d), now).unwrap();
        }
        model.verify_pending();
        if whole > 9 {
            model.prune(10);
        }
        if whole > 10 {
            model.deregister(devs[3]).unwrap();
        }
        model.crash();

        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("shard-0")).unwrap();
        std::fs::copy(base.join("meta.log"), dir.join("meta.log")).unwrap();
        std::fs::write(dir.join("shard-0").join("wal-0.log"), &segment[..cut]).unwrap();
        let mut h = Harness {
            fleet: Fleet::recover(&dir, config.clone(), &catalog()).unwrap(),
            model,
            dir: Some(dir.clone()),
            op,
            rng: Rng(0),
            now: 20,
            sims: BTreeMap::new(),
            issued: issued.iter().map(|&(sid, d, chal, _)| (sid, d, chal)).collect(),
            proofs: Vec::new(),
        };
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            h.compare();
            // Fresh challenges for the survivors, above every old nonce.
            for d in h.model.devices.keys().copied().collect::<Vec<_>>() {
                let chal = h.fleet.issue(d, h.now).unwrap();
                let sid = SessionId(chal.session);
                assert_eq!(Ok(chal.nonce), h.model.issue(sid, d, h.now), "{d}");
                h.issued.push((sid, d, chal.challenge));
            }
            h.crash();
            h.compare();
            let next = h.fleet.register_device(op, 99).unwrap();
            assert_eq!(next, h.model.register(), "device ids");
        }));
        if let Err(e) = result {
            eprintln!("segment cut at byte {cut} of {} ({whole} whole records)", segment.len());
            std::panic::resume_unwind(e);
        }
    }
    let _ = std::fs::remove_dir_all(&base);
}
