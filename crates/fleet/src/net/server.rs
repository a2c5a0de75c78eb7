//! The acceptor loop and the core thread — the half of the frontend that
//! owns the [`Fleet`].

use super::conn::{self, Outbox};
use super::drain::{ConnThreads, NetServerHandle};
use super::{bump, CoreMsg, NetConfig, Shared};
use crate::wire::{self, GrantMsg, Message, RejectMsg, VerdictMsg};
use crate::{DeviceId, Fleet, SessionId, SessionState};
use dialed::report::RejectReason;
use std::collections::HashMap;
use std::io::{self, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Instant;

/// The TCP frontend. A unit struct: [`spawn`](NetServer::spawn) is the
/// whole API — it consumes a [`Fleet`] and returns a running server.
#[derive(Debug)]
pub struct NetServer;

impl NetServer {
    /// Binds `cfg.bind`, takes ownership of `fleet`, and starts the
    /// acceptor + core threads. The fleet is returned by
    /// [`NetServerHandle::shutdown`].
    ///
    /// # Errors
    ///
    /// Fails if the listener cannot bind or the threads cannot spawn.
    pub fn spawn(fleet: Fleet, cfg: NetConfig) -> io::Result<NetServerHandle> {
        let listener = TcpListener::bind(&cfg.bind)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;

        let shared = Arc::new(Shared::new(cfg));
        let threads = Arc::new(Mutex::new(ConnThreads::default()));
        let (core_tx, core_rx) = mpsc::channel::<CoreMsg>();

        let acceptor = {
            let shared = Arc::clone(&shared);
            let threads = Arc::clone(&threads);
            let core_tx = core_tx.clone();
            thread::Builder::new()
                .name("fleet-net-acceptor".into())
                .spawn(move || accept_loop(&listener, &shared, &threads, &core_tx))?
        };

        let core = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("fleet-net-core".into())
                .spawn(move || Core::new(fleet, shared).run(&core_rx))?
        };

        Ok(NetServerHandle::new(addr, shared, threads, core_tx, acceptor, core))
    }
}

/// Accepts connections until the stop flag rises, shedding past the
/// connection cap and reaping finished connection threads as it goes.
fn accept_loop(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    threads: &Arc<Mutex<ConnThreads>>,
    core_tx: &Sender<CoreMsg>,
) {
    let mut next_conn: u64 = 1;
    while !shared.stopping() {
        match listener.accept() {
            Ok((sock, _peer)) => {
                threads.lock().expect("conn thread registry poisoned").reap();
                let active = shared.active_conns.load(Ordering::Acquire);
                if active >= shared.cfg.max_conns as u64 {
                    bump(&shared.stats.conns_shed);
                    shed_connection(sock, active, shared);
                    continue;
                }
                let conn = next_conn;
                next_conn += 1;
                shared.active_conns.fetch_add(1, Ordering::AcqRel);
                match conn::spawn_conn(conn, sock, Arc::clone(shared), core_tx.clone()) {
                    Ok(reader) => {
                        bump(&shared.stats.conns_accepted);
                        threads.lock().expect("conn thread registry poisoned").readers.push(reader);
                    }
                    Err(_) => {
                        // Thread spawn failed (resource exhaustion): the
                        // socket is already dropped; undo the slot.
                        shared.active_conns.fetch_sub(1, Ordering::AcqRel);
                    }
                }
            }
            Err(_) => thread::sleep(shared.cfg.poll_interval),
        }
    }
}

/// Tells a connection past the cap why it is being turned away: one
/// `Overloaded` reject frame, best-effort, then close.
fn shed_connection(mut sock: TcpStream, active: u64, shared: &Arc<Shared>) {
    let reason = RejectReason::Overloaded { pending: active };
    shared.stats.note_reject(&reason);
    let frame = wire::encode(&Message::Reject(RejectMsg { request: 0, reason }));
    let _ = sock.set_write_timeout(Some(shared.cfg.poll_interval));
    if sock.write_all(&frame).is_ok() {
        bump(&shared.stats.frames_out);
    }
}

/// Most submissions one verify pass takes on. Past this the core stops
/// applying queued commands and verifies, so a saturated server still
/// answers in bounded batches; what arrived meanwhile forms the next one.
const BATCH_CAP: usize = 512;

/// The core: sole owner of the [`Fleet`], fed by every reader thread.
struct Core {
    fleet: Fleet,
    shared: Arc<Shared>,
    /// Reply buffers of live connections, keyed by connection id.
    conns: HashMap<u64, Outbox>,
    /// Accepted-but-unresolved submissions: session id → who gets the
    /// verdict. Every entry is owed exactly one reply frame.
    inflight: HashMap<u64, (u64, u64)>,
    /// The sessions the last verify pass settled; kept so a pass reuses
    /// its capacity instead of allocating.
    settled: Vec<SessionId>,
    /// The logical time at `start`: the latest issuance among the sessions
    /// the fleet already holds (0 for a fresh one), so a recovered or
    /// in-process-driven fleet keeps the clock its deadlines count on.
    origin: u64,
    start: Instant,
}

impl Core {
    fn new(fleet: Fleet, shared: Arc<Shared>) -> Self {
        let origin = fleet
            .shards()
            .iter()
            .flat_map(|shard| shard.sessions().sessions())
            .map(|s| s.issued_at)
            .max()
            .unwrap_or(0);
        Self {
            fleet,
            shared,
            conns: HashMap::new(),
            inflight: HashMap::new(),
            settled: Vec::new(),
            origin,
            start: Instant::now(),
        }
    }

    /// Wall clock → logical ticks (the unit of session deadlines).
    fn now(&self) -> u64 {
        let tick = self.shared.cfg.tick.as_nanos().max(1);
        let ticks = u64::try_from(self.start.elapsed().as_nanos() / tick).unwrap_or(u64::MAX);
        self.origin.saturating_add(ticks)
    }

    /// Processes commands until every sender is gone, then flushes what
    /// is still owed and returns the fleet to the shutdown path.
    ///
    /// Work-conserving: after a command arrives, everything already queued
    /// behind it is applied too (up to [`BATCH_CAP`] pending submissions)
    /// and then a verify pass runs — an idle server answers a lone
    /// submission at once, a busy one batches whatever piled up during the
    /// previous pass. The `drain_interval` clock drives housekeeping only;
    /// parked output is retried every `poll_interval`.
    fn run(mut self, rx: &Receiver<CoreMsg>) -> Fleet {
        let interval = self.shared.cfg.drain_interval;
        let mut housekeeping_due = Instant::now() + interval;
        let mut parked = false;
        loop {
            let mut wait = housekeeping_due.saturating_duration_since(Instant::now());
            if parked {
                wait = wait.min(self.shared.cfg.poll_interval);
            }
            match rx.recv_timeout(wait) {
                Ok(msg) => {
                    let now = self.now();
                    self.handle(msg, now);
                    while self.fleet.pending() < BATCH_CAP {
                        let Ok(msg) = rx.try_recv() else { break };
                        self.handle(msg, now);
                    }
                    if self.fleet.pending() > 0 {
                        // The burst's grants and rejects go out now, not
                        // behind the verify pass.
                        self.flush();
                        self.verify_pass();
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                // All senders gone: the acceptor, every reader, and the
                // handle have dropped theirs — and the channel is empty,
                // so the whole backlog has been applied. Shut down.
                Err(RecvTimeoutError::Disconnected) => break,
            }
            if Instant::now() >= housekeeping_due {
                self.housekeeping();
                housekeeping_due = Instant::now() + interval;
            }
            parked = self.flush();
        }
        // Every accepted submission was verified by the pass that followed
        // its command; what can still be owed is an expiry reject. Then each
        // connection gets FIN once it has taken all it is owed.
        self.housekeeping();
        debug_assert!(self.inflight.is_empty(), "shutdown left verdicts unemitted");
        self.conns.values_mut().for_each(|out| out.closing = true);
        while self.flush() {
            thread::sleep(self.shared.cfg.poll_interval);
        }
        self.fleet
    }

    /// One `write` to every connection owed bytes, dropping those done,
    /// gone or cut off. Returns whether any output is still parked.
    fn flush(&mut self) -> bool {
        let (cfg, stats) = (&self.shared.cfg, &self.shared.stats);
        let mut parked = false;
        self.conns.retain(|_, out| {
            let alive = out.flush(cfg, stats);
            parked |= alive && out.parked() > 0;
            alive
        });
        parked
    }

    /// Forgets a connection: FIN once it has taken what it is owed so far;
    /// in-flight verdicts for it are undeliverable.
    fn close(&mut self, conn: u64) {
        if let Some(out) = self.conns.get_mut(&conn) {
            out.closing = true;
        }
        self.inflight.retain(|_, &mut (c, _)| c != conn);
    }

    fn handle(&mut self, msg: CoreMsg, now: u64) {
        match msg {
            CoreMsg::Register { conn, sock } => {
                self.conns.insert(conn, Outbox::new(sock));
            }
            CoreMsg::Violation { conn, detail } => {
                // `request` 0: the error belongs to the connection, not to
                // any request.
                bump(&self.shared.stats.protocol_errors);
                self.reject(conn, 0, RejectReason::MalformedSubmission { detail });
                self.close(conn);
            }
            CoreMsg::ConnClosed { conn } => self.close(conn),
            CoreMsg::Admin(f) => f(&mut self.fleet),
            CoreMsg::Issue { conn, request, device } => {
                match self.fleet.issue(DeviceId(device), now) {
                    Ok(body) => {
                        bump(&self.shared.stats.granted);
                        self.send(conn, &Message::Grant(GrantMsg { request, body }));
                    }
                    Err(e) => {
                        bump(&self.shared.stats.session_rejects);
                        self.reject(conn, request, e.into());
                    }
                }
            }
            CoreMsg::Submit { conn, request, session, device, proof } => {
                // Backpressure before acceptance: if the target shard is
                // already past the watermark, shedding now (with the
                // observed depth) beats queueing work the next pass
                // cannot chew through in time.
                let depth = self.fleet.ingest_depth_of(session);
                if depth >= self.shared.cfg.shed_watermark {
                    bump(&self.shared.stats.shed);
                    self.reject(conn, request, RejectReason::Overloaded { pending: depth as u64 });
                    return;
                }
                match self.fleet.submit_packed(session, device, proof, now) {
                    Ok(()) => {
                        bump(&self.shared.stats.submitted);
                        self.inflight.insert(session.0, (conn, request));
                    }
                    Err(e) => {
                        bump(&self.shared.stats.session_rejects);
                        self.reject(conn, request, e.into());
                    }
                }
            }
        }
    }

    /// Verifies every queued submission and replies for exactly the
    /// sessions that settled — work proportional to the batch, not to the
    /// session store or the in-flight table.
    fn verify_pass(&mut self) {
        let mut settled = std::mem::take(&mut self.settled);
        settled.clear();
        let _ = self.fleet.verify_pending(&mut settled);
        bump(&self.shared.stats.drains);
        for &session in &settled {
            if let Some((conn, request)) = self.inflight.remove(&session.0) {
                self.resolve(session, conn, request);
            }
        }
        self.settled = settled;
    }

    /// The chores on the `drain_interval` clock: expire overdue
    /// challenges, answer in-flight submissions that can no longer get a
    /// verdict (device deregistered under them), prune resolved history.
    /// Expiry and pruning touch only the sessions whose deadline has
    /// passed; the in-flight table is walked whole.
    fn housekeeping(&mut self) {
        let now = self.now();
        self.fleet.expire(now);
        let mut inflight = std::mem::take(&mut self.inflight);
        inflight.retain(|&session, &mut (conn, request)| {
            !self.resolve(SessionId(session), conn, request)
        });
        self.inflight = inflight;
        self.fleet.prune_resolved(now);
        bump(&self.shared.stats.drains);
    }

    /// Sends the one reply an in-flight submission is owed, if its session
    /// has resolved: a verdict frame if a verify pass settled it, an
    /// expiry reject if it was expired first. Returns whether the entry is
    /// finished (replied to, or pruned with nothing left to report).
    fn resolve(&mut self, session: SessionId, conn: u64, request: u64) -> bool {
        let Some((state, deadline)) = self.fleet.session(session).map(|s| (s.state, s.deadline))
        else {
            return true;
        };
        let stats = &self.shared.stats;
        match state {
            SessionState::Issued | SessionState::Submitted => false,
            SessionState::Verified | SessionState::Rejected => {
                if let Some(body) = self.fleet.report_msg(session) {
                    bump(&stats.verdicts);
                    // A rejected verdict is a reject the server produced:
                    // bucket it under the verifier's own reason class so
                    // network replays can account for every expected
                    // rejection exactly.
                    if state == SessionState::Rejected {
                        if let Some(reason) = body.report.findings.iter().find_map(|f| match f {
                            dialed::report::Finding::PoxRejected { reason } => Some(reason),
                            _ => None,
                        }) {
                            stats.note_reject(reason);
                        }
                    }
                    self.send(conn, &Message::Verdict(VerdictMsg { request, body }));
                }
                true
            }
            SessionState::Expired => {
                bump(&stats.expired);
                let reason = RejectReason::from(crate::SessionError::Expired { deadline });
                self.reject(conn, request, reason);
                true
            }
        }
    }

    /// Encodes a reply into its connection's buffer for the pass's flush
    /// (a burst past the parked-output cap is flushed early).
    fn send(&mut self, conn: u64, msg: &Message) {
        let (cfg, stats) = (&self.shared.cfg, &self.shared.stats);
        if let Some(out) = self.conns.get_mut(&conn) {
            out.push(msg);
            if out.parked() > cfg.max_frame && !out.flush(cfg, stats) {
                self.conns.remove(&conn);
            }
        }
    }

    fn reject(&mut self, conn: u64, request: u64, reason: RejectReason) {
        self.shared.stats.note_reject(&reason);
        self.send(conn, &Message::Reject(RejectMsg { request, reason }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::PackedProof;
    use crate::FleetConfig;
    use dialed::attest::DialedDevice;
    use dialed::pipeline::{BuildOptions, InstrumentedOp};
    use dialed::report::RejectClass;
    use std::io::Read;

    const OP_SRC: &str = "\
        .org 0xE000\nop:\n mov r15, r10\n add r14, r10\n mov r10, &0x0060\n ret\n";

    /// A submission is accepted and its device deregistered in the same
    /// burst of commands, before any verify pass can run. No verify pass
    /// will ever settle that session; the housekeeping pass owes the
    /// submitter its expiry reject.
    #[test]
    fn deregistration_under_an_inflight_submission_is_answered_by_housekeeping() {
        let mut fleet =
            Fleet::new(FleetConfig { workers: Some(1), shards: 1, ..FleetConfig::default() });
        let op = InstrumentedOp::build(OP_SRC, "op", &BuildOptions::default()).unwrap();
        let op_id = fleet.register_op("adder", op.clone(), vec![]);
        let dev = fleet.register_device(op_id, 1).unwrap();
        let mut device = DialedDevice::new(op, fleet.device_keystore(dev).unwrap());
        let chal = fleet.issue(dev, 0).unwrap();
        device.invoke(&[0; 8]);
        let (session, proof) = (SessionId(chal.session), device.prove(&chal.challenge));

        // A loopback pair: the core writes to the accepted side, the test
        // reads what arrived at the other.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (sock, _) = listener.accept().unwrap();

        // The whole burst is queued before the core starts, so it is
        // applied in one piece, in this order.
        let (tx, rx) = mpsc::channel();
        tx.send(CoreMsg::Register { conn: 1, sock }).unwrap();
        let proof = PackedProof::pack(&proof.pox);
        tx.send(CoreMsg::Submit { conn: 1, request: 7, session, device: dev, proof }).unwrap();
        tx.send(CoreMsg::Admin(Box::new(move |f| {
            assert_eq!(f.deregister_device(dev), Ok(1), "the in-flight session is open");
        })))
        .unwrap();
        drop(tx);

        let shared = Arc::new(Shared::new(NetConfig::default()));
        let fleet = Core::new(fleet, Arc::clone(&shared)).run(&rx);

        // The core sent FIN on its way out: read to EOF.
        let mut bytes = Vec::new();
        peer.read_to_end(&mut bytes).unwrap();
        let mut frames = wire::FrameReader::new(1 << 20);
        frames.feed(&bytes);
        let mut replies = Vec::new();
        while let Some(msg) = frames.poll().unwrap() {
            replies.push(msg);
        }
        assert_eq!(frames.buffered(), 0, "only whole frames were written");
        assert_eq!(replies.len(), 1, "the submission is owed exactly one reply");
        match replies.remove(0) {
            Message::Reject(r) => {
                assert_eq!(r.request, 7);
                assert_eq!(r.reason.class(), RejectClass::Session, "{:?}", r.reason);
            }
            other => panic!("expected an expiry reject, got {other:?}"),
        }
        let stats = shared.stats.snapshot();
        assert_eq!((stats.submitted, stats.expired, stats.verdicts), (1, 1, 0));
        assert_eq!(stats.frames_out, 1, "the reply was handed to the socket whole");
        assert_eq!(fleet.pending(), 0, "deregistration purged the queued proof");
    }
}
