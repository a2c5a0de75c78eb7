//! Seeded, single-threaded simulation of the network core: no socket,
//! thread or wall clock. Each schedule drives a [`CoreState`] the way the
//! core thread does (bursts of commands, a flush before and after every
//! verify pass, housekeeping on its clock, a retry while output is
//! parked, the graceful drain at the end), on a logical clock, with
//! simulated peers. A peer takes `k ≥ 0` bytes per write, stalls,
//! trickles, vanishes mid-write, breaks the protocol or goes away, and
//! devices are deregistered under open sessions. After every step the
//! simulation checks:
//!
//! * every `Issue` and every accepted `Submit` gets exactly one reply
//!   frame echoing its request id, on time (an issue at once, a verdict
//!   in the pass that settled it, a deregistered device's expiry reject
//!   at the next housekeeping), unless its connection closed first; and a
//!   closed connection is owed nothing new;
//! * a request on a connection the core cut off, sent FIN or was told
//!   closed applies nothing: it grants no session and accepts no proof;
//! * no live connection holds more than `max_frame` parked bytes;
//! * a peer is cut off exactly when the stall rule, re-implemented here
//!   on absolute byte offsets, says it broke, or when its parked bytes
//!   passed `max_frame`;
//! * FIN comes only after everything owed was taken.
//!
//! A schedule is a pure function of its seed, so a failing seed replays
//! exactly: set [`REPLAY`] to it and run
//! `cargo test -p fleet --lib net::sim::replay -- --ignored --nocapture`.

use super::state::CoreState;
use super::{CoreMsg, NetConfig, Shared};
use crate::wire::{ChallengeMsg, FrameReader, Message, PackedProof};
use crate::{DeviceId, Fleet, FleetConfig, SessionId};
use dialed::attest::{DialedDevice, DialedProof};
use dialed::pipeline::{BuildOptions, InstrumentedOp};
use std::collections::BTreeMap;
use std::net::Shutdown;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Schedules the tier-1 test runs.
const SCHEDULES: u64 = 1000;
/// Driver iterations per schedule, before the graceful drain.
const ITERATIONS: usize = 30;
/// The seed [`replay`] runs.
const REPLAY: u64 = 0;
/// Most connections one schedule opens.
const MAX_PEERS: usize = 5;
/// Devices per schedule.
const DEVICES: usize = 3;

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

    fn one_in(&mut self, n: usize) -> bool {
        self.below(n) == 0
    }
}

/// How a simulated peer reads its replies.
#[derive(Clone, Copy, Debug)]
enum Reads {
    /// Up to `k` bytes per write (sometimes none).
    Steady(usize),
    /// Everything it is offered.
    Greedy,
    /// Nothing, ever.
    Stalled,
    /// One byte per write.
    Trickle,
    /// Random amounts, until its socket fails at some write.
    Vanishes,
}

impl Reads {
    fn pick(rng: &mut Rng) -> Self {
        match rng.below(6) {
            0 | 1 => Reads::Steady(1 + rng.below(300)),
            2 => Reads::Greedy,
            3 => Reads::Stalled,
            4 => Reads::Trickle,
            _ => Reads::Vanishes,
        }
    }

    /// Bytes taken of `owed` (> 0) in one write, `None` if the socket failed.
    fn take(self, rng: &mut Rng, owed: usize) -> Option<usize> {
        Some(match self {
            Reads::Steady(k) => rng.below(k + 1).min(owed),
            Reads::Greedy => owed,
            Reads::Stalled => 0,
            Reads::Trickle => 1,
            Reads::Vanishes if rng.one_in(6) => return None,
            Reads::Vanishes => rng.below(owed + 1),
        })
    }
}

/// What a request is owed.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Awaits {
    /// An `Issue`: a grant or a reject, at once.
    Grant,
    /// A `Submit`: a reject at once, or, once accepted, a verdict or an
    /// expiry reject.
    Verdict { device: DeviceId, accepted: bool },
    /// A protocol violation: a connection-level reject (request 0).
    Violation,
}

/// A simulated connection, seen from its peer's end.
struct Peer {
    conn: u64,
    reads: Reads,
    /// Absolute stream offsets: bytes the core has queued for this peer,
    /// and bytes the peer has taken.
    pushed: usize,
    taken: usize,
    /// Decodes the queued stream, frame by frame.
    frames: FrameReader,
    /// Requests still owed a reply, by request id.
    awaiting: BTreeMap<u64, Awaits>,
    next_request: u64,
    /// Set once the reader told the core the connection ended
    /// (`ConnClosed` or `Violation`): the stream end it may not pass.
    closed: Option<usize>,
    /// The core sends FIN once everything owed is taken.
    closing: bool,
    /// FIN sent or cut off: the core has forgotten the connection.
    done: bool,
    /// The stall rule: since when the peer has been behind, and the
    /// stream offset it must reach to count as having kept up.
    behind: Option<(Duration, usize)>,
}

impl Peer {
    fn new(conn: u64, reads: Reads) -> Self {
        Self {
            conn,
            reads,
            pushed: 0,
            taken: 0,
            frames: FrameReader::new(1 << 20),
            awaiting: BTreeMap::new(),
            next_request: 1,
            closed: None,
            closing: false,
            done: false,
            behind: None,
        }
    }

    /// Live from the core's side: it still owes this peer replies.
    fn live(&self) -> bool {
        !self.done && self.closed.is_none()
    }

    /// The rule a write must satisfy, on absolute offsets: a peer left
    /// with bytes parked has `idle_frame_timeout` to take everything owed
    /// at that moment, and starts a new window when it does; it may
    /// never have more than `max_frame` parked.
    fn expect_after_take(&mut self, n: usize, now: Duration, cfg: &NetConfig) -> Option<Shutdown> {
        self.taken += n;
        if self.taken == self.pushed {
            self.behind = None;
            return self.closing.then_some(Shutdown::Write);
        }
        let since = match self.behind {
            Some((since, mark)) if self.taken < mark => since,
            _ => self.behind.insert((now, self.pushed)).0,
        };
        let late = now - since >= cfg.idle_frame_timeout;
        (self.pushed - self.taken > cfg.max_frame || late).then_some(Shutdown::Both)
    }
}

fn op() -> &'static InstrumentedOp {
    static OP: OnceLock<InstrumentedOp> = OnceLock::new();
    OP.get_or_init(|| {
        const SRC: &str =
            ".org 0xE000\nop:\n mov r15, r10\n add r14, r10\n mov r10, &0x0060\n ret\n";
        InstrumentedOp::build(SRC, "op", &BuildOptions::default()).unwrap()
    })
}

/// One schedule: the core, its peers and devices, and the clocks.
struct Sim {
    rng: Rng,
    state: CoreState,
    shared: Arc<Shared>,
    now: Duration,
    housekeeping_due: Duration,
    peers: Vec<Peer>,
    devices: Vec<(DeviceId, DialedDevice, Option<DialedProof>)>,
    deregistered: Vec<DeviceId>,
    grants: Vec<ChallengeMsg>,
}

impl Sim {
    fn new(seed: u64) -> Self {
        let mut rng = Rng(seed);
        let shards = 1 + rng.below(2);
        let mut fleet = Fleet::new(FleetConfig {
            workers: Some(1),
            shards,
            challenge_ttl: 2 + rng.below(20) as u64,
            ..FleetConfig::default()
        });
        let op_id = fleet.register_op("op", op().clone(), vec![]);
        let devices = (0..DEVICES as u64)
            .map(|seed| {
                let id = fleet.register_device(op_id, seed).unwrap();
                let mut device =
                    DialedDevice::new(op().clone(), fleet.device_keystore(id).unwrap());
                device.invoke(&[seed as u16; 8]);
                (id, device, None)
            })
            .collect();
        let cfg = NetConfig {
            max_frame: [200, 600, 2000, 1 << 20][rng.below(4)],
            idle_frame_timeout: Duration::from_millis(20 + rng.below(80) as u64),
            poll_interval: Duration::from_millis(5),
            shed_watermark: 1 + rng.below(6),
            drain_interval: Duration::from_millis(20),
            tick: Duration::from_millis(10),
            ..NetConfig::default()
        };
        let shared = Arc::new(Shared { cfg, ..Shared::default() });
        let state = CoreState::new(fleet, Arc::clone(&shared));
        let housekeeping_due = shared.cfg.drain_interval;
        let mut sim = Self {
            rng,
            state,
            shared,
            now: Duration::ZERO,
            housekeeping_due,
            peers: Vec::new(),
            devices,
            deregistered: Vec::new(),
            grants: Vec::new(),
        };
        sim.register();
        sim
    }

    fn cfg(&self) -> &NetConfig {
        &self.shared.cfg
    }

    fn register(&mut self) {
        let conn = self.peers.len() as u64 + 1;
        let reads = Reads::pick(&mut self.rng);
        self.peers.push(Peer::new(conn, reads));
        assert_eq!(self.state.on_msg(CoreMsg::Register { conn, sock: None }, self.now), None);
    }

    /// One iteration of the core thread's loop.
    fn iteration(&mut self) {
        self.now += if self.rng.one_in(16) {
            Duration::from_millis(self.rng.below(300) as u64)
        } else {
            Duration::from_micros(self.rng.below(12_000) as u64)
        };
        if !self.rng.one_in(4) {
            for _ in 0..1 + self.rng.below(5) {
                self.command();
            }
            if self.state.pending() > 0 {
                self.flush();
                self.state.end_of_burst();
                self.observe();
                self.check_answered("the verify pass", true);
            }
        }
        if self.now >= self.housekeeping_due {
            self.state.housekeeping(self.now);
            self.observe();
            self.check_answered("housekeeping", false);
            self.housekeeping_due = self.now + self.cfg().drain_interval;
        }
        self.flush();
        self.check_parked();
    }

    /// One command from a reader (or the handle), applied as the driver
    /// applies it, with the early flush it may call for.
    fn command(&mut self) {
        let (open, closed): (Vec<usize>, Vec<usize>) =
            (0..self.peers.len()).partition(|&i| self.peers[i].closed.is_none());
        if open.is_empty() || (self.peers.len() < MAX_PEERS && self.rng.one_in(12)) {
            return self.register();
        }
        // Now and then a request reaches the core after its connection
        // closed: the core must apply nothing for it.
        let late = !closed.is_empty() && self.rng.one_in(8);
        let i = if late {
            closed[self.rng.below(closed.len())]
        } else {
            open[self.rng.below(open.len())]
        };
        let conn = self.peers[i].conn;
        // A reader whose socket the core shut down sees EOF soon.
        if !late && self.peers[i].done && self.rng.one_in(2) {
            return self.end(i, CoreMsg::ConnClosed { conn });
        }
        let request = self.peers[i].next_request;
        self.peers[i].next_request += 1;
        let before = self.applied();
        let roll = if late { 5 + self.rng.below(95) } else { self.rng.below(100) };
        let msg = match roll {
            0 => {
                let dev = self.devices[self.rng.below(DEVICES)].0;
                self.deregistered.push(dev);
                CoreMsg::Admin(Box::new(move |f: &mut Fleet| {
                    let _ = f.deregister_device(dev);
                }))
            }
            1 | 2 => {
                self.peers[i].awaiting.insert(0, Awaits::Violation);
                let detail = "x".repeat(self.rng.below(200));
                return self.end(i, CoreMsg::Violation { conn, detail });
            }
            3 | 4 => return self.end(i, CoreMsg::ConnClosed { conn }),
            5..=49 if !self.grants.is_empty() => {
                let (session, device, proof) = self.proof();
                let awaits = Awaits::Verdict { device, accepted: false };
                self.peers[i].awaiting.insert(request, awaits);
                CoreMsg::Submit { conn, request, session, device, proof }
            }
            _ => {
                let device = match self.rng.below(10) {
                    0 => 1000,
                    _ => self.devices[self.rng.below(DEVICES)].0 .0,
                };
                self.peers[i].awaiting.insert(request, Awaits::Grant);
                CoreMsg::Issue { conn, request, device }
            }
        };
        let gone =
            !self.peers[i].live() && matches!(msg, CoreMsg::Issue { .. } | CoreMsg::Submit { .. });
        let early = self.state.on_msg(msg, self.now);
        self.observe();
        let after = self.applied();
        assert!(
            !gone || after == before,
            "conn {conn} was cut, FIN'd or closed, yet its request {request} was applied: \
             (sessions, granted, submitted) {before:?} -> {after:?}"
        );
        let accepted = after.2 > before.2;
        let peer = &mut self.peers[i];
        if let Some(Awaits::Verdict { accepted: a, .. }) = peer.awaiting.get_mut(&request) {
            *a = accepted;
        }
        if peer.live() {
            let owed = peer.awaiting.get(&request).copied();
            assert!(
                matches!(owed, None | Some(Awaits::Verdict { accepted: true, .. })),
                "request {request} on conn {conn} got no immediate reply: {owed:?}"
            );
        }
        self.early_flush(early);
    }

    /// What the core's requests move: the fleet's sessions, and the grants
    /// and accepted submissions it counted.
    fn applied(&self) -> (usize, u64, u64) {
        let stats = &self.shared.stats;
        let count = |n: &AtomicU64| n.load(Ordering::Relaxed);
        (self.state.sessions(), count(&stats.granted), count(&stats.submitted))
    }

    /// A submission against a granted session: the device's honest proof,
    /// its last one again (a replay or a stale proof), or one named for
    /// another device.
    fn proof(&mut self) -> (SessionId, DeviceId, PackedProof) {
        // Mostly one of the latest grants, sometimes any (likely stale).
        let n = self.grants.len();
        let pick =
            if self.rng.one_in(4) { self.rng.below(n) } else { n - 1 - self.rng.below(n.min(3)) };
        let grant = self.grants[pick];
        let slot = self.devices.iter().position(|d| d.0 .0 == grant.device).unwrap();
        let (id, device, last) = &mut self.devices[slot];
        let proof = match last {
            Some(stale) if self.rng.one_in(2) => stale.clone(),
            _ => last.insert(device.prove(&grant.challenge)).clone(),
        };
        let named = if self.rng.one_in(10) { DeviceId(id.0 + 1) } else { *id };
        (SessionId(grant.session), named, PackedProof::pack(&proof.pox))
    }

    /// A command that ends its connection on the core.
    fn end(&mut self, i: usize, msg: CoreMsg) {
        let live = self.peers[i].live();
        let early = self.state.on_msg(msg, self.now);
        self.observe();
        let peer = &mut self.peers[i];
        assert!(!live || !peer.awaiting.contains_key(&0), "a violation is answered at once");
        peer.closed = Some(peer.pushed);
        peer.closing = true;
        self.early_flush(early);
    }

    fn early_flush(&mut self, early: Option<u64>) {
        if let Some(conn) = early {
            let i = (conn - 1) as usize;
            assert!(self.peers[i].pushed - self.peers[i].taken > self.cfg().max_frame);
            self.flush_peer(i);
        }
        self.check_parked();
    }

    /// Reads what the core queued since the last step, checking each
    /// reply against the requests still owed one.
    fn observe(&mut self) {
        for peer in &mut self.peers {
            let owed = self.state.owed(peer.conn);
            if peer.done {
                assert!(owed.is_empty(), "conn {} is forgotten", peer.conn);
                continue;
            }
            let known = peer.pushed - peer.taken;
            assert!(owed.len() >= known, "conn {}: owed bytes vanished", peer.conn);
            peer.frames.feed(&owed[known..]);
            peer.pushed = peer.taken + owed.len();
            if let Some(limit) = peer.closed {
                assert!(
                    peer.pushed <= limit,
                    "conn {} was queued a reply after it closed",
                    peer.conn
                );
            }
            while let Some(msg) = peer.frames.poll().unwrap() {
                let request = match &msg {
                    Message::Grant(g) => g.request,
                    Message::Verdict(v) => v.request,
                    Message::Reject(r) => r.request,
                    other => panic!("conn {}: {other:?} is not a reply", peer.conn),
                };
                let owed = peer.awaiting.remove(&request);
                let fits = match (&msg, owed) {
                    (Message::Grant(_), Some(Awaits::Grant)) => true,
                    (Message::Verdict(_), Some(Awaits::Verdict { accepted: true, .. })) => true,
                    (Message::Reject(_), owed) => owed.is_some(),
                    _ => false,
                };
                assert!(
                    fits,
                    "conn {}: {msg:?} answers request {request}, which was owed {owed:?}",
                    peer.conn
                );
                if let Message::Grant(g) = msg {
                    self.grants.push(g.body);
                }
            }
            assert_eq!(
                peer.frames.buffered(),
                0,
                "conn {}: only whole frames are queued",
                peer.conn
            );
        }
    }

    /// After a verify pass, every accepted submission on a live connection
    /// has its reply, except those of a device deregistered under them;
    /// after housekeeping, those too.
    fn check_answered(&self, step: &str, pass: bool) {
        for peer in self.peers.iter().filter(|p| p.live()) {
            for (request, owed) in &peer.awaiting {
                if let Awaits::Verdict { device, accepted: true } = owed {
                    assert!(
                        pass && self.deregistered.contains(device),
                        "{step} left request {request} on conn {} unanswered",
                        peer.conn
                    );
                }
            }
        }
    }

    /// No live connection holds more than `max_frame` parked bytes.
    fn check_parked(&self) {
        for peer in self.peers.iter().filter(|p| !p.done) {
            let parked = self.state.owed(peer.conn).len();
            assert!(
                parked <= self.cfg().max_frame,
                "conn {} holds {parked} parked bytes",
                peer.conn
            );
        }
    }

    /// The driver's flush: one write to every connection.
    fn flush(&mut self) -> bool {
        (0..self.peers.len()).fold(false, |parked, i| self.flush_peer(i) | parked)
    }

    /// One write to one connection; whether bytes stay parked on it.
    fn flush_peer(&mut self, i: usize) -> bool {
        let now = self.now;
        let peer = &mut self.peers[i];
        if peer.done {
            return false;
        }
        let owed = self.state.owed(peer.conn).len();
        assert_eq!(
            owed,
            peer.pushed - peer.taken,
            "conn {}: every owed byte was observed",
            peer.conn
        );
        let took = if owed == 0 { Some(0) } else { peer.reads.take(&mut self.rng, owed) };
        let (link, expected) = match took {
            Some(n) => {
                let expected = peer.expect_after_take(n, now, &self.shared.cfg);
                (self.state.took(peer.conn, n, now), expected)
            }
            None => (self.state.gone(peer.conn), Some(Shutdown::Both)),
        };
        assert_eq!(link, expected, "conn {} ({:?}) at {now:?}", peer.conn, peer.reads);
        if link == Some(Shutdown::Write) {
            assert_eq!(
                peer.taken, peer.pushed,
                "conn {}: FIN before all owed was taken",
                peer.conn
            );
        }
        peer.done = link.is_some();
        !peer.done && peer.taken < peer.pushed
    }

    /// The graceful drain: a last housekeeping pass, then every connection
    /// gets FIN once it has taken all it is owed, or is cut off.
    fn shutdown(&mut self) {
        self.state.housekeeping(self.now);
        self.observe();
        self.check_answered("the last housekeeping", false);
        self.state.closing();
        for peer in &mut self.peers {
            peer.closing = true;
        }
        let poll = self.cfg().poll_interval;
        let bound = 2 * self.cfg().idle_frame_timeout.as_nanos() / poll.as_nanos() + 2;
        let mut polls = 0;
        while self.flush() {
            polls += 1;
            assert!(polls <= bound, "shutdown still writing after {polls} polls");
            self.now += poll;
        }
        for peer in &self.peers {
            assert!(peer.done, "conn {} was neither closed nor cut off", peer.conn);
            if peer.closed.is_none() && peer.taken == peer.pushed {
                assert!(
                    peer.awaiting.is_empty(),
                    "conn {} was never answered {:?}",
                    peer.conn,
                    peer.awaiting
                );
            }
        }
    }
}

/// Runs one schedule; a failure names its seed and iteration.
fn run(seed: u64) {
    let mut sim = Sim::new(seed);
    for step in 0..=ITERATIONS {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if step < ITERATIONS {
                sim.iteration();
            } else {
                sim.shutdown();
            }
        }));
        if let Err(e) = result {
            eprintln!("net sim: schedule seed {seed} failed at iteration {step} (set REPLAY to replay it)");
            std::panic::resume_unwind(e);
        }
    }
}

#[test]
fn seeded_schedules_keep_every_reply_and_cut_off_rule() {
    for seed in 0..SCHEDULES {
        run(seed);
    }
}

#[test]
#[ignore = "replays the seed in REPLAY"]
fn replay() {
    run(REPLAY);
}
