//! The acceptor loop and the core thread — the half of the frontend that
//! owns the [`Fleet`].

use super::conn;
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
                    Ok(pair) => {
                        bump(&shared.stats.conns_accepted);
                        threads.lock().expect("conn thread registry poisoned").push(pair);
                    }
                    Err(_) => {
                        // Thread spawn failed (resource exhaustion): the
                        // socket is already dropped; undo the slot.
                        shared.active_conns.fetch_sub(1, Ordering::AcqRel);
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(shared.cfg.poll_interval);
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
    /// Reply channels of live connections, keyed by connection id.
    replies: HashMap<u64, Sender<Vec<u8>>>,
    /// Accepted-but-unresolved submissions: session id → who gets the
    /// verdict. Every entry is owed exactly one reply frame.
    inflight: HashMap<u64, (u64, u64)>,
    start: Instant,
}

impl Core {
    fn new(fleet: Fleet, shared: Arc<Shared>) -> Self {
        Self {
            fleet,
            shared,
            replies: HashMap::new(),
            inflight: HashMap::new(),
            start: Instant::now(),
        }
    }

    /// Wall clock → logical ticks (the unit of session deadlines).
    fn now(&self) -> u64 {
        let tick = self.shared.cfg.tick.as_nanos().max(1);
        u64::try_from(self.start.elapsed().as_nanos() / tick).unwrap_or(u64::MAX)
    }

    /// Processes commands until every sender is gone, then flushes what
    /// is still owed and returns the fleet to the shutdown path.
    ///
    /// Work-conserving: after a command arrives, everything already queued
    /// behind it is applied too (up to [`BATCH_CAP`] pending submissions)
    /// and then a verify pass runs — an idle server answers a lone
    /// submission at once, a busy one batches whatever piled up during the
    /// previous pass. The `drain_interval` clock drives housekeeping only.
    fn run(mut self, rx: &Receiver<CoreMsg>) -> Fleet {
        let interval = self.shared.cfg.drain_interval;
        let mut housekeeping_due = Instant::now() + interval;
        loop {
            match rx.recv_timeout(housekeeping_due.saturating_duration_since(Instant::now())) {
                Ok(msg) => {
                    let now = self.now();
                    self.handle(msg, now);
                    while self.fleet.pending() < BATCH_CAP {
                        let Ok(msg) = rx.try_recv() else { break };
                        self.handle(msg, now);
                    }
                    if self.fleet.pending() > 0 {
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
        }
        // Every accepted submission was verified by the pass that followed
        // its command; what can still be owed is an expiry reject. Dropping
        // `replies` afterwards lets the writers flush and exit.
        self.housekeeping();
        debug_assert!(self.inflight.is_empty(), "shutdown left verdicts unemitted");
        self.fleet
    }

    fn handle(&mut self, msg: CoreMsg, now: u64) {
        match msg {
            CoreMsg::Register { conn, reply } => {
                self.replies.insert(conn, reply);
            }
            CoreMsg::ConnClosed { conn } => {
                self.replies.remove(&conn);
                // Undeliverable verdicts die with the connection.
                self.inflight.retain(|_, &mut (c, _)| c != conn);
            }
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
            CoreMsg::Submit { conn, request, body } => {
                // Backpressure before acceptance: if the target shard is
                // already past the watermark, shedding now (with the
                // observed depth) beats queueing work the next pass
                // cannot chew through in time.
                let (session, device) = (SessionId(body.session), DeviceId(body.device));
                let depth = self.fleet.ingest_depth_of(session);
                if depth >= self.shared.cfg.shed_watermark {
                    bump(&self.shared.stats.shed);
                    self.reject(conn, request, RejectReason::Overloaded { pending: depth as u64 });
                    return;
                }
                match self.fleet.submit(session, device, body.proof, now) {
                    Ok(()) => {
                        bump(&self.shared.stats.submitted);
                        self.inflight.insert(body.session, (conn, request));
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
        let mut settled = Vec::new();
        let _ = self.fleet.verify_pending(&mut settled);
        bump(&self.shared.stats.drains);
        for session in settled {
            if let Some((conn, request)) = self.inflight.remove(&session.0) {
                self.resolve(session, conn, request);
            }
        }
    }

    /// The O(sessions) chores, on the `drain_interval` clock: expire
    /// overdue challenges, answer in-flight submissions that can no longer
    /// get a verdict (device deregistered under them), prune resolved
    /// history.
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
    /// has resolved: a verdict frame if the batch engines settled it, an
    /// expiry reject if it was expired first. Returns whether the entry is
    /// finished (replied to, or pruned with nothing left to report).
    fn resolve(&self, session: SessionId, conn: u64, request: u64) -> bool {
        let stats = &self.shared.stats;
        let Some(s) = self.fleet.session(session) else {
            return true;
        };
        match s.state {
            SessionState::Issued | SessionState::Submitted => false,
            SessionState::Verified | SessionState::Rejected => {
                if let Some(body) = self.fleet.report_msg(session) {
                    bump(&stats.verdicts);
                    // A rejected verdict is a reject the server produced:
                    // bucket it under the verifier's own reason class so
                    // network replays can account for every expected
                    // rejection exactly.
                    if s.state == SessionState::Rejected {
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
                let reason =
                    RejectReason::from(crate::SessionError::Expired { deadline: s.deadline });
                self.reject(conn, request, reason);
                true
            }
        }
    }

    /// Hands an encoded frame to a connection's writer; a vanished writer
    /// (peer already gone) just drops the frame.
    fn send(&self, conn: u64, msg: &Message) {
        if let Some(tx) = self.replies.get(&conn) {
            let _ = tx.send(wire::encode(msg));
        }
    }

    fn reject(&self, conn: u64, request: u64, reason: RejectReason) {
        self.shared.stats.note_reject(&reason);
        self.send(conn, &Message::Reject(RejectMsg { request, reason }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::ProofMsg;
    use crate::FleetConfig;
    use dialed::attest::DialedDevice;
    use dialed::pipeline::{BuildOptions, InstrumentedOp};
    use dialed::report::RejectClass;

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
        let body =
            ProofMsg { session: chal.session, device: dev.0, proof: device.prove(&chal.challenge) };

        // The whole burst is queued before the core starts, so it is
        // applied in one piece, in this order.
        let (tx, rx) = mpsc::channel();
        let (reply, replies) = mpsc::channel();
        tx.send(CoreMsg::Register { conn: 1, reply }).unwrap();
        tx.send(CoreMsg::Submit { conn: 1, request: 7, body }).unwrap();
        tx.send(CoreMsg::Admin(Box::new(move |f| {
            assert_eq!(f.deregister_device(dev), Ok(1), "the in-flight session is open");
        })))
        .unwrap();
        drop(tx);

        let shared = Arc::new(Shared::new(NetConfig::default()));
        let fleet = Core::new(fleet, Arc::clone(&shared)).run(&rx);

        let frames: Vec<Vec<u8>> = replies.try_iter().collect();
        assert_eq!(frames.len(), 1, "the submission is owed exactly one reply");
        match wire::decode(&frames[0]).unwrap() {
            Message::Reject(r) => {
                assert_eq!(r.request, 7);
                assert_eq!(r.reason.class(), RejectClass::Session, "{:?}", r.reason);
            }
            other => panic!("expected an expiry reject, got {other:?}"),
        }
        let stats = shared.stats.snapshot();
        assert_eq!((stats.submitted, stats.expired, stats.verdicts), (1, 1, 0));
        assert_eq!(fleet.pending(), 0, "deregistration purged the queued proof");
    }
}
