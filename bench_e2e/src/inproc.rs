//! One closed-loop attestation round against an in-process [`Fleet`].
//!
//! The round is phased so that only server calls are timed:
//!
//! 1. **issue** — `Fleet::issue` for every active device (timed);
//! 2. **prove** — every simulator proves and frames its proof (untimed:
//!    device-side work is load generation, reported as `loadgen.prove_us`);
//! 3. **submit** — `Fleet::submit_wire` for every frame (timed; each call's
//!    entry time is the start of that device's verdict latency);
//! 4. **drain** — `Fleet::drain` (timed; its return ends every latency);
//! 5. **check** — every session's report against the outcome its device
//!    must get (untimed);
//! 6. **prune** — the clock advances and `Fleet::prune_resolved` runs
//!    (timed).
//!
//! The same function drives the `inproc_full` and `durable_pox` workloads
//! and the in-memory *twin* rounds the traced runs use as a replica of the
//! server side of a durable or networked round.

use crate::meter::Meter;
use crate::population::{self, ActiveDev, Backing, Scale};
use crate::span::{SpanId, Tracer};
use dialed::pipeline::InstrumentMode;
use dialed::report::Verdict;
use fleet::wire::{self, ChallengeMsg, Message, ProofMsg};
use fleet::{Fleet, SessionId, SessionState};
use std::time::{Duration, Instant};

/// Logical ticks the clock advances per round, as the repository's own
/// `fleet_throughput` bench does: with the default TTL of 64 ticks the
/// fleet carries 16 rounds of resolved history, a steady state reached
/// during warm-up.
pub const TICKS_PER_ROUND: u64 = 4;
/// Rounds until that history is at steady state (TTL ÷ ticks, plus one).
pub const HISTORY_ROUNDS: usize = 17;

/// Where a traced round records its spans.
pub struct TraceCtx<'a> {
    pub tracer: &'a mut Tracer,
    pub round: u32,
    pub parent: SpanId,
    /// [`REAL`] for the fleet under test, [`TWIN`] for a twin round (a
    /// replica of another fleet's round).
    pub names: &'static SpanNames,
}

/// Span names of one round; the twin's differ so totals never mix.
pub struct SpanNames {
    replica: bool,
    pub phase_issue: &'static str,
    pub issue: &'static str,
    pub phase_prove: &'static str,
    pub phase_submit: &'static str,
    pub submit_wire: &'static str,
    pub drain: &'static str,
    pub phase_check: &'static str,
    pub prune: &'static str,
}

pub const REAL: SpanNames = SpanNames {
    replica: false,
    phase_issue: "phase.issue",
    issue: "session.issue",
    phase_prove: "phase.prove",
    phase_submit: "phase.submit",
    submit_wire: "fleet.submit_wire",
    drain: "ingest.drain",
    phase_check: "phase.check",
    prune: "session.prune",
};

pub const TWIN: SpanNames = SpanNames {
    replica: true,
    phase_issue: "twin.phase.issue",
    issue: "twin.session.issue",
    phase_prove: "twin.phase.prove",
    phase_submit: "twin.phase.submit",
    submit_wire: "twin.fleet.submit_wire",
    drain: "twin.ingest.drain",
    phase_check: "twin.phase.check",
    prune: "twin.session.prune",
};

impl TraceCtx<'_> {
    fn span(&mut self, parent: SpanId, name: &'static str, start: Instant, end: Instant) -> SpanId {
        if self.names.replica {
            self.tracer.replica(parent, self.round, name, start, end)
        } else {
            self.tracer.real(parent, self.round, name, start, end)
        }
    }
}

/// What one round measured.
#[derive(Clone, Copy, Debug, Default)]
pub struct RoundTimes {
    pub issue: Duration,
    pub submit: Duration,
    pub drain: Duration,
    pub prune: Duration,
    /// `DialedDevice::prove` over all devices.
    pub prove: Duration,
    /// `wire::encode` of all proof frames.
    pub encode: Duration,
    /// Bytes of all proof frames.
    pub frame_bytes: usize,
    /// Instructions the verifier abstractly executed, summed over verdicts.
    pub emulated_insns: u64,
    /// Sessions whose outcome was the required one.
    pub matched: usize,
    /// Spans replicas hang under (zero in an untraced round).
    pub prove_span: SpanId,
    pub submit_span: SpanId,
    pub drain_span: SpanId,
}

impl RoundTimes {
    /// Timed server time of the round.
    pub fn server(&self) -> Duration {
        self.issue + self.submit + self.drain + self.prune
    }
}

/// A fleet plus the per-round scratch the loop reuses, so the timed phases
/// allocate nothing of their own.
pub struct Inproc {
    pub fleet: Fleet,
    now: u64,
    chals: Vec<ChallengeMsg>,
    pub frames: Vec<Vec<u8>>,
    /// `submit_wire` entry times of the last round, by device index.
    pub entries: Vec<Instant>,
    /// When the last round's drain returned.
    pub drain_end: Instant,
}

impl Inproc {
    pub fn new(fleet: Fleet, devices: usize) -> Self {
        let t = Instant::now();
        Self {
            fleet,
            now: 0,
            chals: Vec::with_capacity(devices),
            frames: Vec::with_capacity(devices),
            entries: Vec::with_capacity(devices),
            drain_end: t,
        }
    }

    /// An in-memory fleet holding the same population as the fleet under
    /// test: the replica of the server side of a durable or networked round.
    pub fn twin(mode: InstrumentMode, scale: Scale, seed: u64, devices: usize) -> Self {
        Self::new(population::fresh(mode, scale, seed, Backing::Memory).fleet, devices)
    }

    /// The challenges of the last round, by device index.
    pub fn challenges(&self) -> &[ChallengeMsg] {
        &self.chals
    }

    /// Runs one round over `devs`. Outcomes other than a `Clean` verdict
    /// are described in `mismatches`.
    pub fn round(
        &mut self,
        devs: &[ActiveDev],
        mut trace: Option<TraceCtx<'_>>,
        meter: &mut Meter,
        mismatches: &mut Vec<String>,
    ) -> RoundTimes {
        let mut out = RoundTimes::default();
        let now = self.now;
        let root = trace.as_ref().map_or(0, |t| t.parent);
        // 1. issue
        self.chals.clear();
        meter.begin();
        let t0 = Instant::now();
        match trace.as_mut() {
            None => {
                for d in devs {
                    self.chals.push(self.fleet.issue(d.id, now).expect("registered device"));
                }
                out.issue = t0.elapsed();
            }
            Some(t) => {
                // Per-call spans are buffered and attached once the phase
                // span exists; the buffer is this round's own allocation.
                let mut calls = Vec::with_capacity(devs.len());
                for d in devs {
                    let a = Instant::now();
                    self.chals.push(self.fleet.issue(d.id, now).expect("registered device"));
                    calls.push((a, Instant::now()));
                }
                out.issue = t0.elapsed();
                let phase = t.span(root, t.names.phase_issue, t0, t0 + out.issue);
                for (a, b) in calls {
                    t.span(phase, t.names.issue, a, b);
                }
            }
        }
        meter.end();

        // 2. prove (device side, untimed)
        self.frames.clear();
        let t_prove = Instant::now();
        for (d, chal) in devs.iter().zip(&self.chals) {
            let a = Instant::now();
            let proof = d.sim.prove(&chal.challenge);
            let b = Instant::now();
            let frame = wire::encode(&Message::Proof(ProofMsg {
                session: chal.session,
                device: d.id.0,
                proof,
            }));
            out.prove += b - a;
            out.encode += b.elapsed();
            out.frame_bytes += frame.len();
            self.frames.push(frame);
        }
        if let Some(t) = trace.as_mut() {
            out.prove_span = t.span(root, t.names.phase_prove, t_prove, Instant::now());
        }

        // 3. submit and 4. drain
        self.entries.clear();
        meter.begin();
        let t0 = Instant::now();
        let mut ends = Vec::with_capacity(if trace.is_some() { devs.len() } else { 0 });
        for frame in &self.frames {
            self.entries.push(Instant::now());
            self.fleet.submit_wire(frame, now).expect("fresh proof is accepted");
            if trace.is_some() {
                ends.push(Instant::now());
            }
        }
        out.submit = t0.elapsed();
        let t1 = Instant::now();
        let (stats, expired) = self.fleet.drain(now);
        self.drain_end = Instant::now();
        out.drain = self.drain_end - t1;
        meter.end();
        if let Some(t) = trace.as_mut() {
            out.submit_span = t.span(root, t.names.phase_submit, t0, t0 + out.submit);
            for (&a, b) in self.entries.iter().zip(ends) {
                t.span(out.submit_span, t.names.submit_wire, a, b);
            }
            out.drain_span = t.span(root, t.names.drain, t1, self.drain_end);
        }
        assert_eq!((stats.drained, expired), (devs.len(), 0), "every submission drains");

        // 5. check
        let t_check = Instant::now();
        for (d, chal) in devs.iter().zip(&self.chals) {
            let session = self.fleet.session(SessionId(chal.session));
            let report = session.and_then(|s| s.report.as_ref());
            match (session.map(|s| s.state), report) {
                (Some(SessionState::Verified), Some(r)) if r.verdict == Verdict::Clean => {
                    out.matched += 1;
                    out.emulated_insns += r.stats.emulated_insns as u64;
                }
                (state, report) => mismatches.push(format!(
                    "device {} session {}: expected a Clean verdict, got {state:?} {report:?}",
                    d.id.0, chal.session
                )),
            }
        }
        if let Some(t) = trace.as_mut() {
            t.span(root, t.names.phase_check, t_check, Instant::now());
        }

        // 6. prune
        self.now += TICKS_PER_ROUND;
        meter.begin();
        let t0 = Instant::now();
        self.fleet.prune_resolved(self.now);
        out.prune = t0.elapsed();
        meter.end();
        if let Some(t) = trace.as_mut() {
            t.span(root, t.names.prune, t0, t0 + out.prune);
        }
        out
    }
}
