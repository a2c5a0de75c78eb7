//! The acceptor loop and the core thread: a thin driver that owns the
//! sockets, the wall clock and the command channel, around the
//! [`CoreState`] that owns the [`Fleet`] and decides.

use super::conn;
use super::drain::{ConnThreads, NetServerHandle};
use super::state::CoreState;
use super::{bump, CoreMsg, NetConfig, Shared};
use crate::session::IdMap;
use crate::wire::{self, Message, RejectMsg};
use crate::Fleet;
use dialed::report::RejectReason;
use std::io::{self, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

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

        let shared = Arc::new(Shared { cfg, ..Shared::default() });
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
            thread::Builder::new().name("fleet-net-core".into()).spawn(move || {
                drive(CoreState::new(fleet, Arc::clone(&shared)), &shared.cfg, &core_rx)
            })?
        };

        let (core_tx, acceptor, core) = (Some(core_tx), Some(acceptor), Some(core));
        Ok(NetServerHandle { addr, shared, threads, core_tx, acceptor, core })
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

/// The core thread: a thin driver that feeds [`CoreState`] the commands,
/// the wall clock and what each socket took, and carries out what it
/// decides. Work-conserving: it applies every command already queued (up
/// to [`BATCH_CAP`] pending submissions), then verifies — an idle server
/// answers a lone submission at once, a busy one batches what piled up
/// during the last pass. The `drain_interval` clock paces housekeeping
/// only; parked output is retried every `poll_interval`.
fn drive(mut state: CoreState, cfg: &NetConfig, rx: &Receiver<CoreMsg>) -> Fleet {
    let start = Instant::now();
    let mut socks = IdMap::default();
    let mut housekeeping_due = start + cfg.drain_interval;
    let mut parked = false;
    loop {
        let mut wait = housekeeping_due.saturating_duration_since(Instant::now());
        if parked {
            wait = wait.min(cfg.poll_interval);
        }
        match rx.recv_timeout(wait) {
            Ok(msg) => {
                let now = start.elapsed();
                let mut next = Some(msg);
                while let Some(mut msg) = next {
                    if let CoreMsg::Register { conn, sock } = &mut msg {
                        socks.extend(sock.take().map(|sock| (*conn, sock)));
                    }
                    // The early flush of a connection taken past `max_frame`.
                    if let Some(conn) = state.on_msg(msg, now) {
                        if socks.get(&conn).is_some_and(|s| !write_owed(&mut state, conn, s, now)) {
                            socks.remove(&conn);
                        }
                    }
                    let room = state.pending() < BATCH_CAP;
                    next = if room { rx.try_recv().ok() } else { None };
                }
                if state.pending() > 0 {
                    // The burst's grants and rejects go out now, not
                    // behind the verify pass.
                    flush(&mut state, &mut socks, start.elapsed());
                    state.end_of_burst();
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            // Every sender (acceptor, readers, handle) dropped its end and
            // the whole backlog has been applied: shut down.
            Err(RecvTimeoutError::Disconnected) => break,
        }
        if Instant::now() >= housekeeping_due {
            state.housekeeping(start.elapsed());
            housekeeping_due = Instant::now() + cfg.drain_interval;
        }
        parked = flush(&mut state, &mut socks, start.elapsed());
    }
    // What can still be owed is an expiry reject.
    state.housekeeping(start.elapsed());
    state.closing();
    while flush(&mut state, &mut socks, start.elapsed()) {
        thread::sleep(cfg.poll_interval);
    }
    state.into_fleet()
}

/// One `write` to every connection owed bytes, dropping those done, gone
/// or cut off. Returns whether any output is still parked.
fn flush(state: &mut CoreState, socks: &mut IdMap<u64, TcpStream>, now: Duration) -> bool {
    let mut parked = false;
    socks.retain(|&conn, sock| {
        let kept = write_owed(state, conn, sock, now);
        parked |= kept && !state.owed(conn).is_empty();
        kept
    });
    parked
}

/// Offers `conn`'s socket what it is owed in one `write` that never
/// waits, tells the state what was taken, and carries out its decision.
/// Returns whether the connection stays.
fn write_owed(state: &mut CoreState, conn: u64, sock: &TcpStream, now: Duration) -> bool {
    let end = match state.owed(conn) {
        [] => state.took(conn, 0, now),
        owed => match conn::write_now(sock, owed) {
            Ok(n) => state.took(conn, n, now),
            Err(e) if conn::timed_out(&e) => state.took(conn, 0, now),
            Err(_) => state.gone(conn),
        },
    };
    let Some(how) = end else { return true };
    let _ = sock.shutdown(how);
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::PackedProof;
    use crate::{FleetConfig, SessionId};
    use dialed::attest::DialedDevice;
    use dialed::pipeline::{BuildOptions, InstrumentedOp};
    use dialed::report::RejectClass;
    use std::net::Shutdown;

    const OP_SRC: &str = "\
        .org 0xE000\nop:\n mov r15, r10\n add r14, r10\n mov r10, &0x0060\n ret\n";

    /// A submission is accepted and its device deregistered in the same
    /// burst of commands, before any verify pass can run. No verify pass
    /// will ever settle that session; the housekeeping pass owes the
    /// submitter its expiry reject. The core's steps are driven as the
    /// core thread drives them, on logical time.
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

        // One burst, applied in one piece, in this order.
        let shared = Arc::new(Shared::default());
        let mut state = CoreState::new(fleet, Arc::clone(&shared));
        let now = Duration::ZERO;
        let proof = PackedProof::pack(&proof.pox);
        let burst = [
            CoreMsg::Register { conn: 1, sock: None },
            CoreMsg::Submit { conn: 1, request: 7, session, device: dev, proof },
            CoreMsg::Admin(Box::new(move |f| {
                assert_eq!(f.deregister_device(dev), Ok(1), "the in-flight session is open");
            })),
        ];
        for msg in burst {
            assert_eq!(state.on_msg(msg, now), None);
        }
        assert_eq!(state.pending(), 0, "no verify pass follows the burst");
        assert!(state.owed(1).is_empty(), "nothing is owed before housekeeping");

        // Shutdown: the last housekeeping, then FIN once all is taken.
        state.housekeeping(now);
        state.closing();
        let bytes = state.owed(1).to_vec();
        assert_eq!(state.took(1, bytes.len(), now), Some(Shutdown::Write), "FIN");
        let fleet = state.into_fleet();

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
