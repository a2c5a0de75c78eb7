//! `net_pox_closed`: a closed loop over the TCP frontend on loopback.
//!
//! Two connections, each driven by its own generator thread, carry half of
//! the active devices. A round is phased like the in-process one:
//! pipelined `Issue`s → `Grant`s (timed), proofs (untimed), pipelined
//! `Submit`s → `Verdict`s (timed; a verdict's latency runs from the send
//! of its submit to the receipt of the verdict). With 1024 submissions in
//! flight — twice `NetConfig::drain_pending` — drains fire on count, not
//! on the 20 ms timer.

use crate::closed::{self, acc};
use crate::inproc::{Inproc, TraceCtx, TWIN};
use crate::layers::{self, Parents, Replicas, Sampled};
use crate::measure::{Recorder, RoundRec, SetupParts, NO_READINGS};
use crate::meter::Meter;
use crate::population::{self, ActiveDev, Backing, BuiltOp, Scale};
use crate::workload::{Opts, Workload};
use dialed::pipeline::InstrumentMode;
use dialed::report::Verdict;
use fleet::wire::{self, FrameReader, IssueMsg, Message, ProofMsg, SubmitMsg};
use fleet::{ChallengeMsg, Fleet, NetConfig, NetServer, NetServerHandle, NetStats};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Connections (and generator threads).
pub const LANES: usize = 2;

/// The server tunables every networked workload uses: what users get.
pub fn net_config() -> NetConfig {
    NetConfig::default()
}

/// Wall time the session store needs to reach its steady size: resolved
/// sessions are pruned once their deadline (TTL × tick after issue) has
/// passed.
pub fn history_time() -> Duration {
    let ttl = u32::try_from(population::fleet_config().challenge_ttl).unwrap_or(u32::MAX);
    net_config().tick * (ttl + 2)
}

/// One client connection: a blocking socket and a frame reader.
pub struct Conn {
    sock: TcpStream,
    frames: FrameReader,
    buf: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let sock = TcpStream::connect(addr)?;
        sock.set_nodelay(true)?;
        Ok(Self { sock, frames: FrameReader::new(1 << 20), buf: vec![0; 64 * 1024] })
    }

    pub fn set_nonblocking(&self, on: bool) -> io::Result<()> {
        self.sock.set_nonblocking(on)
    }

    /// Writes one whole frame. On a non-blocking socket a full send buffer
    /// is waited out: the generator never has more than a few frames in
    /// flight, so this does not happen in a healthy run.
    pub fn send(&mut self, frame: &[u8]) -> io::Result<()> {
        let mut rest = frame;
        while !rest.is_empty() {
            match self.sock.write(rest) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => rest = &rest[n..],
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::yield_now(),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// The next message already buffered, if any.
    fn buffered(&mut self) -> io::Result<Option<Message>> {
        self.frames.poll().map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }

    /// Blocks for the next message.
    pub fn recv(&mut self) -> io::Result<Message> {
        loop {
            if let Some(msg) = self.buffered()? {
                return Ok(msg);
            }
            let n = self.sock.read(&mut self.buf)?;
            if n == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            self.frames.feed(&self.buf[..n]);
        }
    }

    /// The next message if one has arrived (non-blocking sockets only).
    pub fn try_recv(&mut self) -> io::Result<Option<Message>> {
        if let Some(msg) = self.buffered()? {
            return Ok(Some(msg));
        }
        match self.sock.read(&mut self.buf) {
            Ok(0) => Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => {
                self.frames.feed(&self.buf[..n]);
                self.buffered()
            }
            Err(e)
                if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted) =>
            {
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }
}

/// A server on loopback, `LANES` connections to it, and proof that it
/// answers: the networked part of a set-up.
pub fn serve(fleet: Fleet, first: fleet::DeviceId) -> (NetServerHandle, Vec<Conn>) {
    let handle = NetServer::spawn(fleet, net_config()).expect("loopback server binds");
    let mut conns: Vec<Conn> =
        (0..LANES).map(|_| Conn::connect(handle.addr()).expect("loopback connects")).collect();
    idle_round_trip(&mut conns[0], 1, first);
    (handle, conns)
}

/// One set-up of a networked workload, torn down again: a fresh fleet with
/// the whole population, then — as one more part — a server on it, two
/// connections and a first grant.
pub fn networked_setup(
    mode: InstrumentMode,
    scale: Scale,
    seed: u64,
    rec: &mut Recorder,
) -> SetupParts {
    let setup = population::fresh(mode, scale, seed, Backing::Memory);
    rec.add_time(acc::REGISTER, setup.register, 3 * scale.per_app);
    let mut parts = setup.parts;
    let start = Instant::now();
    let (handle, conns) = serve(setup.fleet, population::device_id(scale, 0, 0));
    parts.push(start.elapsed());
    shutdown(handle, conns);
    parts
}

/// Shuts a server down and hands back its fleet and counters.
pub fn shutdown(handle: NetServerHandle, conns: Vec<Conn>) -> (Fleet, NetStats) {
    drop(conns);
    handle.shutdown().expect("no server thread may panic")
}

/// One connection's share of the round.
struct Lane {
    conn: Conn,
    /// Indices into the workload's devices.
    devs: Vec<usize>,
    next_request: u64,
    chals: Vec<ChallengeMsg>,
    frames: Vec<Vec<u8>>,
    lat_ns: Vec<u64>,
    mismatches: Vec<String>,
    prove: Duration,
}

impl Lane {
    /// Pipelines an `Issue` per device, then collects every `Grant`.
    fn issue_phase(&mut self, devs: &[ActiveDev]) -> (Instant, Instant) {
        let base = self.next_request;
        self.next_request += self.devs.len() as u64;
        let frames: Vec<Vec<u8>> = self
            .devs
            .iter()
            .enumerate()
            .map(|(i, &d)| {
                wire::encode(&Message::Issue(IssueMsg {
                    request: base + i as u64,
                    device: devs[d].id.0,
                }))
            })
            .collect();
        self.chals.clear();
        self.chals.resize(self.devs.len(), placeholder_challenge());
        let start = Instant::now();
        for f in &frames {
            self.conn.send(f).expect("issue is sent");
        }
        for _ in 0..self.devs.len() {
            match self.conn.recv().expect("server replies") {
                Message::Grant(g) if (base..self.next_request).contains(&g.request) => {
                    self.chals[(g.request - base) as usize] = g.body;
                }
                other => panic!("expected a grant, got {other:?}"),
            }
        }
        (start, Instant::now())
    }

    /// Every device proves and frames its `Submit`.
    fn prove_phase(&mut self, devs: &[ActiveDev]) {
        let base = self.next_request;
        self.frames.clear();
        let start = Instant::now();
        let mut proofs = Vec::with_capacity(self.devs.len());
        for (&d, chal) in self.devs.iter().zip(&self.chals) {
            proofs.push(devs[d].sim.prove(&chal.challenge));
        }
        self.prove = start.elapsed();
        for (i, ((&d, chal), proof)) in self.devs.iter().zip(&self.chals).zip(proofs).enumerate() {
            self.frames.push(wire::encode(&Message::Submit(SubmitMsg {
                request: base + i as u64,
                body: ProofMsg { session: chal.session, device: devs[d].id.0, proof },
            })));
        }
    }

    /// Pipelines every `Submit`, then collects every `Verdict`.
    fn submit_phase(&mut self, devs: &[ActiveDev]) -> (Instant, Instant) {
        let base = self.next_request;
        self.next_request += self.devs.len() as u64;
        let mut sent = Vec::with_capacity(self.devs.len());
        self.lat_ns.clear();
        let start = Instant::now();
        for f in &self.frames {
            sent.push(Instant::now());
            self.conn.send(f).expect("submit is sent");
        }
        for _ in 0..self.devs.len() {
            let msg = self.conn.recv().expect("server replies");
            let at = Instant::now();
            let request = match &msg {
                Message::Verdict(v) => v.request,
                Message::Reject(r) => r.request,
                other => panic!("expected a verdict, got {other:?}"),
            };
            assert!((base..self.next_request).contains(&request), "uncorrelated reply {msg:?}");
            let i = (request - base) as usize;
            self.lat_ns.push((at - sent[i]).as_nanos() as u64);
            match msg {
                Message::Verdict(v) if v.body.report.verdict == Verdict::Clean => {}
                other => self.mismatches.push(format!(
                    "device {}: expected a Clean verdict, got {other:?}",
                    devs[self.devs[i]].id.0
                )),
            }
        }
        (start, Instant::now())
    }
}

fn placeholder_challenge() -> ChallengeMsg {
    ChallengeMsg {
        session: 0,
        device: 0,
        nonce: 0,
        deadline: 0,
        challenge: vrased::Challenge::from_bytes([0; 32]),
    }
}

/// Returns right after the server's core has run a drain. An idle core
/// drains every `drain_interval`; a timed phase that starts on that tick
/// and is shorter than the interval sees no timer drain, so its drains
/// fire on count alone. Without this, whether the timer cuts a batch short
/// — and leaves its remainder waiting 20 ms for the next tick — depends on
/// the phase between the round loop and the server's clock, and rounds
/// fall into a fast and a slow mode that persist for seconds.
fn wait_for_drain_tick(handle: &NetServerHandle) {
    let seen = handle.stats().drains;
    let give_up = Instant::now() + 10 * net_config().drain_interval;
    while handle.stats().drains == seen && Instant::now() < give_up {
        std::thread::sleep(Duration::from_micros(100));
    }
}

/// Runs `f` on every lane at once (one scoped thread each) and returns the
/// wall time from the first start to the last end.
fn on_all_lanes(
    lanes: &mut [Lane],
    f: impl Fn(&mut Lane) -> (Instant, Instant) + Sync,
) -> (Instant, Instant) {
    let spans: Vec<(Instant, Instant)> = std::thread::scope(|scope| {
        let handles: Vec<_> = lanes.iter_mut().map(|lane| scope.spawn(|| f(lane))).collect();
        handles.into_iter().map(|h| h.join().expect("generator thread panicked")).collect()
    });
    let start = spans.iter().map(|s| s.0).min().expect("at least one lane");
    let end = spans.iter().map(|s| s.1).max().expect("at least one lane");
    (start, end)
}

pub struct NetClosed {
    mode: InstrumentMode,
    scale: Scale,
    seed: u64,
    trace: bool,
    ops: Vec<BuiltOp>,
    devs: Vec<ActiveDev>,
    handle: Option<NetServerHandle>,
    lanes: Vec<Lane>,
    twin: Option<Inproc>,
    replicas: Option<Replicas>,
    /// Counters at the start of the measured window.
    base_stats: Option<NetStats>,
    /// A registered device that never attests, for idle round trips.
    idle_device: fleet::DeviceId,
    /// Idle round trips made; their request ids count up from 2.
    idle_frames: u64,
}

impl NetClosed {
    pub fn new(opts: &Opts, rec: &mut Recorder) -> Self {
        let mode = InstrumentMode::Original;
        let scale = opts.scale(LANES * 512);
        let setup = population::fresh(mode, scale, opts.seed, Backing::Memory);
        rec.add_time(acc::REGISTER, setup.register, 3 * scale.per_app);
        let devs = population::boot_active(&setup, scale);
        rec.values.insert(acc::SHARD_IMBALANCE, population::shard_imbalance(&setup.fleet, &devs));
        let replicas = opts.trace.then(|| Replicas::new(&setup, &devs));
        let twin = opts.trace.then(|| Inproc::twin(mode, scale, opts.seed, devs.len()));
        // The last device of the last application never attests.
        let idle_device = population::device_id(scale, 2, scale.per_app - 1);
        let (handle, conns) = serve(setup.fleet, idle_device);
        let lanes = conns
            .into_iter()
            .enumerate()
            .map(|(l, conn)| Lane {
                conn,
                // Interleaved, so each lane carries all three applications.
                devs: (l..devs.len()).step_by(LANES).collect(),
                next_request: 1000,
                chals: Vec::new(),
                frames: Vec::new(),
                lat_ns: Vec::new(),
                mismatches: Vec::new(),
                prove: Duration::ZERO,
            })
            .collect();
        Self {
            mode,
            scale,
            seed: opts.seed,
            trace: opts.trace,
            ops: setup.ops,
            devs,
            handle: Some(handle),
            lanes,
            twin,
            replicas,
            base_stats: None,
            idle_device,
            idle_frames: 0,
        }
    }
}

/// One `Issue` → `Grant` for `device` on an otherwise idle server, over a
/// blocking connection.
pub fn idle_round_trip(conn: &mut Conn, request: u64, device: fleet::DeviceId) -> Duration {
    let frame = wire::encode(&Message::Issue(IssueMsg { request, device: device.0 }));
    let start = Instant::now();
    conn.send(&frame).expect("issue is sent");
    match conn.recv() {
        Ok(Message::Grant(g)) if g.request == request => start.elapsed(),
        other => panic!("idle issue must be granted, got {other:?}"),
    }
}

/// `NetStats` deltas as per-layer sums.
///
/// `idle_frames` are the harness's own idle round trips, which are not
/// traffic of the workload.
pub fn add_net_stats(rec: &mut Recorder, from: &NetStats, to: &NetStats, idle_frames: u64) {
    let verdicts = (to.verdicts - from.verdicts) as f64;
    let submits = (to.submitted + to.shed + to.session_rejects
        - (from.submitted + from.shed + from.session_rejects)) as f64;
    rec.add(acc::NET_FRAMES_IN, (to.frames_in - from.frames_in - idle_frames) as f64, verdicts);
    rec.add(acc::NET_SHED, (to.shed - from.shed) as f64, submits);
    rec.add(acc::NET_VERDICTS_PER_DRAIN, verdicts, (to.drains - from.drains) as f64);
    rec.values.insert(acc::NET_PROTOCOL_ERRORS, (to.protocol_errors - from.protocol_errors) as f64);
}

impl Workload for NetClosed {
    fn warmup_rounds(&self) -> usize {
        5
    }

    fn warmup_time(&self) -> Duration {
        history_time()
    }

    fn round(&mut self, rec: &mut Recorder, index: u32, traced: bool) -> RoundRec {
        let n = self.devs.len();
        let devs = &self.devs;
        if index == 1 {
            self.base_stats = self.handle.as_ref().map(NetServerHandle::stats);
        }
        let started = Instant::now();
        let root = rec.open_round(traced, index, started);
        let mut meter = Meter::new(self.trace && !traced && index > 0);

        let handle = self.handle.as_ref().expect("server is running");
        wait_for_drain_tick(handle);
        meter.begin();
        let issue = on_all_lanes(&mut self.lanes, |lane| lane.issue_phase(devs));
        meter.end();
        let prove_start = Instant::now();
        on_all_lanes(&mut self.lanes, |lane| {
            lane.prove_phase(devs);
            (prove_start, prove_start)
        });
        let prove_end = Instant::now();
        wait_for_drain_tick(handle);
        meter.begin();
        let submit = on_all_lanes(&mut self.lanes, |lane| lane.submit_phase(devs));
        meter.end();
        let server = (issue.1 - issue.0) + (submit.1 - submit.0);

        let lat_start = rec.lat_ns.len();
        let mut fresh = Vec::new();
        for lane in &mut self.lanes {
            rec.lat_ns.extend_from_slice(&lane.lat_ns);
            fresh.append(&mut lane.mismatches);
        }
        rec.note_outcomes(n, &mut fresh);

        if traced {
            let mut parents = Parents::default();
            if let Some(tr) = rec.tracer.as_mut() {
                tr.real(root, index, "net.wait_tick", started, issue.0);
                tr.real(root, index, "net.phase.issue", issue.0, issue.1);
                parents.prove = tr.real(root, index, "phase.prove", prove_start, prove_end);
                tr.real(root, index, "net.wait_tick", prove_end, submit.0);
                parents.submit = tr.real(root, index, "net.phase.submit", submit.0, submit.1);
                parents.drain = parents.submit;
            }
            rec.add_time(acc::SERVER, server, n);
            let prove: Duration = self.lanes.iter().map(|l| l.prove).sum();
            rec.add_time(acc::PROVE, prove, n);

            let replica_start = Instant::now();
            self.idle_frames += 1;
            let rtt =
                idle_round_trip(&mut self.lanes[0].conn, 1 + self.idle_frames, self.idle_device);
            rec.add_time(acc::NET_RTT, rtt, 1);
            if let (Some(twin), Some(tracer)) = (self.twin.as_mut(), rec.tracer.as_mut()) {
                // The same devices through an in-process fleet: what the
                // round costs without sockets, framing and the core hop.
                let ctx = TraceCtx { tracer, round: index, parent: parents.submit, names: &TWIN };
                let tt = twin.round(devs, Some(ctx), &mut Meter::new(false), &mut fresh);
                fresh.clear();
                closed::add_phases(rec, &tt, n);
                let extra = server.as_secs_f64() - tt.server().as_secs_f64();
                rec.add(acc::NET_OVERHEAD, extra, n as f64);
            }
            if let Some(replicas) = self.replicas.as_mut() {
                let picks: Vec<(usize, usize)> = layers::sample_indices(n, layers::SAMPLE)
                    .map(|i| (i % LANES, i / LANES))
                    .filter(|&(l, k)| k < self.lanes[l].devs.len())
                    .collect();
                let sample: Vec<Sampled<'_>> = picks
                    .iter()
                    .map(|&(l, k)| Sampled {
                        dev: self.lanes[l].devs[k],
                        frame: &self.lanes[l].frames[k],
                        challenge: self.lanes[l].chals[k].challenge,
                    })
                    .collect();
                replicas.run(rec, index, parents, &self.ops, devs, &sample);
            }
            rec.close_round(root, index, replica_start);
        }
        meter.record(rec, n);

        RoundRec {
            traced,
            host: NO_READINGS,
            server_s: server.as_secs_f64(),
            verdicts: n as u32,
            lat: lat_start..rec.lat_ns.len(),
        }
    }

    fn setup_sample(&mut self, rec: &mut Recorder) -> SetupParts {
        networked_setup(self.mode, self.scale, self.seed, rec)
    }

    fn finish(mut self: Box<Self>, rec: &mut Recorder) {
        let handle = self.handle.take().expect("server is running");
        let conns = self.lanes.drain(..).map(|l| l.conn).collect();
        let (fleet, stats) = shutdown(handle, conns);
        assert_eq!(fleet.pending(), 0, "shutdown drains every accepted submission");
        if let Some(base) = &self.base_stats {
            add_net_stats(rec, base, &stats, self.idle_frames);
        }
    }
}
