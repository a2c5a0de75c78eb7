//! `net_full_paced`: an open loop over the TCP frontend on loopback.
//!
//! One generator thread with two non-blocking connections starts
//! [`RATE`] sessions per second on a fixed schedule, whatever the server
//! does: session `i` of a segment issues at `i / RATE` (plus a seed-derived
//! jitter below half a period) and submits [`THINK`] later. A fifth of the
//! devices are adversarial by role. Latency is measured from each
//! submission's **due** time, so a stall in the generator or the server
//! counts against every submission it delays; how late the generator
//! itself ran is reported as `loadgen.lateness_p99_ms`.
//!
//! The schedule runs in segments of an eighth of the active devices
//! (128 sessions, about an eighth of a second). Between segments the
//! generator waits for the last reply, the disturbance probes run, and
//! set-up samples and replicas take their turn, so a segment plays the
//! part a round plays in the closed loops.

use crate::closed::{self, acc};
use crate::inproc::{Inproc, TraceCtx, TWIN};
use crate::layers::{self, Parents, Replicas, Sampled};
use crate::measure::{Recorder, RoundRec, SetupParts, NO_READINGS};
use crate::meter::Meter;
use crate::net_closed::{self, add_net_stats, Conn, LANES};
use crate::population::{self, ActiveDev, Backing, BuiltOp, Scale};
use crate::seed::{self, Rng, Role};
use crate::stats;
use crate::workload::{Opts, Workload};
use dialed::pipeline::InstrumentMode;
use dialed::report::{Finding, RejectClass, Verdict};
use fleet::wire::{self, IssueMsg, Message, ProofMsg, SubmitMsg};
use fleet::{ChallengeMsg, NetServerHandle, NetStats};
use std::time::{Duration, Instant};
use vrased::Challenge;

/// Sessions started per second.
pub const RATE: u32 = 1000;
/// Device think time: a session's submission is due this long after its
/// issue was. Covers the grant's round trip and the proof.
pub const THINK: Duration = Duration::from_millis(3);
/// Segments it takes the schedule to visit every active device once.
const SEGMENTS_PER_CYCLE: usize = 8;
/// Adversarial devices, per mille.
const ADVERSARIAL: usize = 200;
/// Longest idle sleep of the generator.
const NAP: Duration = Duration::from_micros(100);
/// A segment that has not finished by then has lost a reply.
const STALL: Duration = Duration::from_secs(20);
/// Request ids per session: issue, submit, second submit.
const IDS: u64 = 4;

/// What a submission's reply must be.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Expect {
    /// A `Clean` verdict.
    Clean,
    /// A `Rejected` verdict whose reason is a MAC mismatch.
    MacReject,
    /// An immediate session-layer reject.
    SessionReject,
}

/// One session of a segment.
struct Sess {
    dev: usize,
    conn: usize,
    issue_due: Instant,
    submit_due: Instant,
    issued: Option<Instant>,
    chal: Option<ChallengeMsg>,
    granted: Option<Instant>,
    /// Encoded submissions with the reply each must get.
    submits: Vec<(Vec<u8>, Expect)>,
    sent: Option<Instant>,
    /// When the last reply to a submission arrived.
    replied: Option<Instant>,
}

pub struct NetPaced {
    mode: InstrumentMode,
    scale: Scale,
    seed: u64,
    trace: bool,
    ops: Vec<BuiltOp>,
    /// Active devices in visiting order (shuffled by the seed), so a
    /// segment is a contiguous slice.
    devs: Vec<ActiveDev>,
    roles: Vec<Role>,
    /// Turns each device has taken (a replayer alternates on it).
    turns: Vec<u32>,
    /// A replayer's proof from its last honest turn.
    captured: Vec<Option<ProofMsg>>,
    cursor: usize,
    segment: usize,
    jitter: Rng,
    handle: Option<NetServerHandle>,
    conns: Vec<Conn>,
    next_request: u64,
    twin: Option<Inproc>,
    replicas: Option<Replicas>,
    base_stats: Option<NetStats>,
    idle_device: fleet::DeviceId,
    idle_frames: u64,
    /// Send time − due time of every send in measured segments, in ms.
    lateness_ms: Vec<f64>,
}

impl NetPaced {
    pub fn new(opts: &Opts, rec: &mut Recorder) -> Self {
        let mode = InstrumentMode::Full;
        let scale = opts.scale(1024);
        let setup = population::fresh(mode, scale, opts.seed, Backing::Memory);
        rec.add_time(acc::REGISTER, setup.register, 3 * scale.per_app);
        let mut devs = population::boot_active(&setup, scale);
        rec.values.insert(acc::SHARD_IMBALANCE, population::shard_imbalance(&setup.fleet, &devs));
        Rng::derive(opts.seed, 0x6F72_6465).shuffle(&mut devs);
        let roles = seed::assign_roles(opts.seed, devs.len(), ADVERSARIAL);
        let replicas = opts.trace.then(|| Replicas::new(&setup, &devs));
        let twin = opts.trace.then(|| Inproc::twin(mode, scale, opts.seed, devs.len()));
        let idle_device = population::device_id(scale, 2, scale.per_app - 1);
        let (handle, conns) = net_closed::serve(setup.fleet, idle_device);
        for c in &conns {
            c.set_nonblocking(true).expect("socket switches to non-blocking");
        }
        Self {
            mode,
            scale,
            seed: opts.seed,
            trace: opts.trace,
            ops: setup.ops,
            turns: vec![0; devs.len()],
            captured: vec![None; devs.len()],
            // A smoke run gives every device (and so every role) a turn in
            // every segment.
            segment: if opts.smoke { devs.len() } else { (devs.len() / SEGMENTS_PER_CYCLE).max(1) },
            roles,
            devs,
            cursor: 0,
            jitter: Rng::derive(opts.seed, 0x6A69_7474),
            handle: Some(handle),
            conns,
            next_request: 1000,
            twin,
            replicas,
            base_stats: None,
            idle_device,
            idle_frames: 0,
            lateness_ms: Vec::new(),
        }
    }

    /// The submissions device `dev` makes for `chal`, by its role.
    fn submissions(
        &mut self,
        dev: usize,
        chal: &ChallengeMsg,
        base: u64,
    ) -> Vec<(Vec<u8>, Expect)> {
        let d = &self.devs[dev];
        let frame = |k: u64, body: ProofMsg| {
            wire::encode(&Message::Submit(SubmitMsg { request: base + k, body }))
        };
        let honest = |challenge: &Challenge| ProofMsg {
            session: chal.session,
            device: d.id.0,
            proof: d.sim.prove(challenge),
        };
        let turn = self.turns[dev];
        self.turns[dev] += 1;
        match self.roles[dev] {
            Role::Honest => vec![(frame(1, honest(&chal.challenge)), Expect::Clean)],
            Role::TagFlip => {
                let mut body = honest(&chal.challenge);
                body.proof.pox.tag[0] ^= 0x01;
                vec![(frame(1, body), Expect::MacReject)]
            }
            Role::WrongChallenge => {
                let own = Challenge::derive(b"self-chosen", u64::from(turn));
                vec![(frame(1, honest(&own)), Expect::MacReject)]
            }
            Role::Duplicate => {
                let body = honest(&chal.challenge);
                vec![
                    (frame(1, body.clone()), Expect::Clean),
                    (frame(2, body), Expect::SessionReject),
                ]
            }
            Role::Replayer => match self.captured[dev].take() {
                // Last turn's accepted proof, replayed into this session.
                Some(old) => {
                    let body = ProofMsg { session: chal.session, ..old };
                    vec![(frame(1, body), Expect::SessionReject)]
                }
                None => {
                    let body = honest(&chal.challenge);
                    self.captured[dev] = Some(body.clone());
                    vec![(frame(1, body), Expect::Clean)]
                }
            },
        }
    }

    /// Runs one segment of the schedule; returns its sessions, its wall
    /// time and the number of submissions it made.
    fn run_segment(
        &mut self,
        rec: &mut Recorder,
        measured: bool,
        fresh: &mut Vec<String>,
    ) -> (Vec<Sess>, Duration, usize) {
        let n = self.segment;
        if self.cursor + n > self.devs.len() {
            self.cursor = 0;
        }
        let period = Duration::from_secs(1) / RATE;
        let base = self.next_request;
        self.next_request += n as u64 * IDS;
        // A short lead so that the first session is not born late.
        let origin = Instant::now() + Duration::from_micros(200);
        let mut sess: Vec<Sess> = (0..n)
            .map(|i| {
                let jitter = period.mul_f64(self.jitter.below(500) as f64 / 1000.0);
                let issue_due = origin + period * i as u32 + jitter;
                Sess {
                    dev: self.cursor + i,
                    conn: i % LANES,
                    issue_due,
                    submit_due: issue_due + THINK,
                    issued: None,
                    chal: None,
                    granted: None,
                    submits: Vec::new(),
                    sent: None,
                    replied: None,
                }
            })
            .collect();
        self.cursor += n;

        let (mut next_issue, mut next_submit) = (0usize, 0usize);
        // Replies still owed: a grant per session, then one per submission
        // (added when the grant arrives and the submissions are known).
        let mut owed = n;
        let mut submissions = 0usize;
        let mut last_reply = origin;
        loop {
            let now = Instant::now();
            let mut progressed = false;
            while next_issue < n && sess[next_issue].issue_due <= now {
                let s = &mut sess[next_issue];
                let frame = wire::encode(&Message::Issue(IssueMsg {
                    request: base + next_issue as u64 * IDS,
                    device: self.devs[s.dev].id.0,
                }));
                let at = Instant::now();
                self.conns[s.conn].send(&frame).expect("issue is sent");
                s.issued = Some(at);
                if measured {
                    self.lateness_ms.push((at - s.issue_due).as_secs_f64() * 1e3);
                }
                next_issue += 1;
                progressed = true;
            }
            while next_submit < n
                && sess[next_submit].submit_due <= now
                && sess[next_submit].chal.is_some()
            {
                let s = &mut sess[next_submit];
                let at = Instant::now();
                for (frame, _) in &s.submits {
                    self.conns[s.conn].send(frame).expect("submit is sent");
                }
                s.sent = Some(at);
                if measured {
                    self.lateness_ms.push((at - s.submit_due).as_secs_f64() * 1e3);
                }
                next_submit += 1;
                progressed = true;
            }
            for c in 0..self.conns.len() {
                while let Some(msg) = self.conns[c].try_recv().expect("server replies") {
                    let at = Instant::now();
                    last_reply = at;
                    progressed = true;
                    owed -= 1;
                    let request = match &msg {
                        Message::Grant(g) => g.request,
                        Message::Verdict(v) => v.request,
                        Message::Reject(r) => r.request,
                        other => panic!("unexpected server message {other:?}"),
                    };
                    assert!(
                        (base..base + n as u64 * IDS).contains(&request),
                        "uncorrelated reply {msg:?}"
                    );
                    let (i, k) = (((request - base) / IDS) as usize, (request - base) % IDS);
                    match msg {
                        Message::Grant(g) => {
                            let subs =
                                self.submissions(sess[i].dev, &g.body, base + i as u64 * IDS);
                            owed += subs.len();
                            submissions += subs.len();
                            sess[i].submits = subs;
                            sess[i].chal = Some(g.body);
                            sess[i].granted = Some(at);
                        }
                        reply => {
                            sess[i].replied = Some(at);
                            let s = &sess[i];
                            let expect = s.submits[k as usize - 1].1;
                            let sent = s.sent.expect("reply follows its submission");
                            if expect != Expect::Clean && measured {
                                rec.add_time(acc::NET_REJECT, at - sent, 1);
                            }
                            if matches!(reply, Message::Verdict(_)) {
                                let lat = at.saturating_duration_since(s.submit_due);
                                rec.lat_ns.push(lat.as_nanos() as u64);
                            }
                            if !outcome_matches(expect, &reply) {
                                fresh.push(format!(
                                    "device {} ({:?}): expected {expect:?}, got {reply:?}",
                                    self.devs[s.dev].id.0, self.roles[s.dev]
                                ));
                            }
                        }
                    }
                }
            }
            if owed == 0 && next_submit == n {
                break;
            }
            assert!(now - origin < STALL, "segment stalled with {owed} replies owed");
            if !progressed {
                let next_due = [
                    sess.get(next_issue).map(|s| s.issue_due),
                    sess.get(next_submit).filter(|s| s.chal.is_some()).map(|s| s.submit_due),
                ]
                .into_iter()
                .flatten()
                .min();
                let nap = next_due.map_or(NAP, |d| d.saturating_duration_since(now).min(NAP));
                if !nap.is_zero() {
                    std::thread::sleep(nap);
                }
            }
        }
        (sess, last_reply - origin, submissions)
    }

    /// One `Issue` → `Grant` on an otherwise idle server.
    fn idle_round_trip(&mut self) -> Duration {
        self.next_request += 1;
        self.idle_frames += 1;
        // Blocking for this one exchange: a generator spinning on the
        // socket would compete with the server threads it is waiting for.
        let conn = &mut self.conns[0];
        conn.set_nonblocking(false).expect("socket switches to blocking");
        let rtt = net_closed::idle_round_trip(conn, self.next_request, self.idle_device);
        conn.set_nonblocking(true).expect("socket switches to non-blocking");
        rtt
    }
}

/// Whether `reply` is what a submission expecting `expect` must get.
fn outcome_matches(expect: Expect, reply: &Message) -> bool {
    match (expect, reply) {
        (Expect::Clean, Message::Verdict(v)) => v.body.report.verdict == Verdict::Clean,
        (Expect::MacReject, Message::Verdict(v)) => {
            v.body.report.verdict == Verdict::Rejected
                && matches!(
                    v.body.report.findings.first(),
                    Some(Finding::PoxRejected { reason }) if reason.class() == RejectClass::Mac
                )
        }
        (Expect::SessionReject, Message::Reject(r)) => r.reason.class() == RejectClass::Session,
        _ => false,
    }
}

impl Workload for NetPaced {
    fn warmup_rounds(&self) -> usize {
        4
    }

    fn warmup_time(&self) -> Duration {
        net_closed::history_time()
    }

    fn round(&mut self, rec: &mut Recorder, index: u32, traced: bool) -> RoundRec {
        let measured = index > 0;
        if index == 1 {
            self.base_stats = self.handle.as_ref().map(NetServerHandle::stats);
        }
        let start = Instant::now();
        let root = rec.open_round(traced, index, start);
        let mut meter = Meter::new(self.trace && !traced && measured);
        meter.begin();
        let lat_start = rec.lat_ns.len();
        let mut fresh = Vec::new();
        let (sess, wall, submissions) = self.run_segment(rec, measured, &mut fresh);
        let first = sess[0].dev;
        meter.end();
        let lat_end = rec.lat_ns.len();
        rec.note_outcomes(submissions, &mut fresh);

        if traced {
            let mut parents = Parents::default();
            if let Some(tr) = rec.tracer.as_mut() {
                let seg = tr.real(root, index, "net.segment", start, Instant::now());
                parents.submit = seg;
                parents.drain = seg;
                parents.prove = seg;
                for s in &sess {
                    if let (Some(a), Some(b)) = (s.issued, s.granted) {
                        tr.real(seg, index, "net.issue_to_grant", a, b);
                    }
                    if let (Some(a), Some(b)) = (s.sent, s.replied) {
                        tr.real(seg, index, "net.submit_to_reply", a, b);
                    }
                }
            }
            let replica_start = Instant::now();
            let rtt = self.idle_round_trip();
            rec.add_time(acc::NET_RTT, rtt, 1);
            // The segment's devices are a contiguous slice of `devs`.
            let devs = &self.devs[first..first + sess.len()];
            if let (Some(twin), Some(tracer)) = (self.twin.as_mut(), rec.tracer.as_mut()) {
                let ctx = TraceCtx { tracer, round: index, parent: parents.submit, names: &TWIN };
                let tt = twin.round(devs, Some(ctx), &mut Meter::new(false), &mut fresh);
                fresh.clear();
                closed::add_phases(rec, &tt, devs.len());
                rec.add_time(acc::PROVE, tt.prove, devs.len());
                rec.add(acc::STEPS, tt.emulated_insns as f64, tt.matched as f64);
            }
            if let Some(replicas) = self.replicas.as_mut() {
                let honest: Vec<&Sess> = sess
                    .iter()
                    .filter(|s| s.submits.first().is_some_and(|(_, e)| *e == Expect::Clean))
                    .collect();
                let sample: Vec<Sampled<'_>> = layers::sample_indices(honest.len(), layers::SAMPLE)
                    .map(|i| honest[i])
                    .map(|s| Sampled {
                        dev: s.dev,
                        frame: &s.submits[0].0,
                        challenge: s.chal.expect("granted").challenge,
                    })
                    .collect();
                replicas.run(rec, index, parents, &self.ops, &self.devs, &sample);
            }
            rec.close_round(root, index, replica_start);
        }
        meter.record(rec, submissions);

        RoundRec {
            traced,
            host: NO_READINGS,
            server_s: wall.as_secs_f64(),
            verdicts: submissions as u32,
            lat: lat_start..lat_end,
        }
    }

    fn setup_sample(&mut self, rec: &mut Recorder) -> SetupParts {
        net_closed::networked_setup(self.mode, self.scale, self.seed, rec)
    }

    fn finish(mut self: Box<Self>, rec: &mut Recorder) {
        let handle = self.handle.take().expect("server is running");
        let (fleet, stats) = net_closed::shutdown(handle, std::mem::take(&mut self.conns));
        assert_eq!(fleet.pending(), 0, "shutdown drains every accepted submission");
        if let Some(base) = &self.base_stats {
            add_net_stats(rec, base, &stats, self.idle_frames);
        }
        if !self.lateness_ms.is_empty() {
            stats::sort(&mut self.lateness_ms);
            let (p99, _) = stats::tail_quantile(&self.lateness_ms, 0.99);
            rec.values.insert(acc::LATENESS_P99_MS, p99);
        }
    }
}
