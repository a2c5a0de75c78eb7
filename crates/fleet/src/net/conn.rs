//! One reader thread per connection, and the one socket write the core
//! makes. The reader pulls bytes through a [`FrameReader`] (frame-size
//! cap, fail-fast magic/version checks) and forwards decoded requests —
//! and any protocol violation — to the core. It never writes: the core
//! hands each connection's replies to [`write_now`], one `write` per pass
//! that never waits. One connection carries any number of devices.

use super::{bump, CoreMsg, Shared};
use crate::wire::{self, FrameReader, Message, WireError};
use crate::{DeviceId, SessionId};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Instant;

/// Spawns the reader thread for one accepted connection.
pub(crate) fn spawn_conn(
    conn: u64,
    sock: TcpStream,
    shared: Arc<Shared>,
    core_tx: Sender<CoreMsg>,
) -> io::Result<JoinHandle<()>> {
    let _ = sock.set_nodelay(true);
    sock.set_read_timeout(Some(shared.cfg.poll_interval))?;
    // The core writes through a clone of this socket (see `write_now`).
    let out = sock.try_clone()?;
    thread::Builder::new().name(format!("fleet-net-rd-{conn}")).spawn(move || {
        // Sent from this thread, on the channel its requests use, so the
        // core always sees Register before the first request.
        let _ = core_tx.send(CoreMsg::Register { conn, sock: Some(out) });
        if let Some(last) = read_loop(conn, &sock, &shared, &core_tx) {
            let _ = core_tx.send(last);
        }
        shared.active_conns.fetch_sub(1, Ordering::AcqRel);
    })
}

/// The reader: poll the socket, assemble frames, forward requests.
///
/// Returns the message that ends the connection on the core:
/// `ConnClosed` when the peer went away, `Violation` when it broke the
/// protocol (the core answers with a structured reject before it closes).
/// `None` when the server is shutting down: the connection stays
/// registered so the final drain can still deliver.
fn read_loop(
    conn: u64,
    mut sock: &TcpStream,
    shared: &Shared,
    core_tx: &Sender<CoreMsg>,
) -> Option<CoreMsg> {
    let violation = |detail: String| Some(CoreMsg::Violation { conn, detail });
    let mut frames = FrameReader::new(shared.cfg.max_frame);
    let mut buf = vec![0u8; 16 * 1024];
    // Slow-loris clock: set while a frame sits incomplete, reset only by
    // frame completion — a peer trickling one byte per poll still hits
    // the deadline.
    let mut partial_since: Option<Instant> = None;

    loop {
        if shared.stopping() {
            return None;
        }
        match sock.read(&mut buf) {
            Ok(0) => return Some(CoreMsg::ConnClosed { conn }),
            Ok(n) => {
                frames.feed(&buf[..n]);
                loop {
                    let cmd = match frames.poll_with(|frame| request(conn, frame)) {
                        Ok(Some(cmd)) => cmd,
                        Ok(None) => break,
                        Err(e) => return violation(e.to_string()),
                    };
                    bump(&shared.stats.frames_in);
                    match cmd {
                        Ok(cmd) => {
                            let _ = core_tx.send(cmd);
                        }
                        Err(kind) => {
                            return violation(format!("unexpected {kind} message from client"))
                        }
                    }
                }
                partial_since = if frames.buffered() > 0 {
                    partial_since.or_else(|| Some(Instant::now()))
                } else {
                    None
                };
            }
            Err(e) if timed_out(&e) => {
                if partial_since.is_some_and(|t| t.elapsed() >= shared.cfg.idle_frame_timeout) {
                    return violation(format!(
                        "incomplete frame stalled ({} bytes buffered)",
                        frames.buffered()
                    ));
                }
            }
            Err(_) => return Some(CoreMsg::ConnClosed { conn }),
        }
    }
}

/// Reads one frame as a request: a `Submit` with its proof left packed
/// (its output region is never built here), anything else through
/// [`wire::decode`]. `Ok(Err(kind))` names a well-formed message that is
/// not a request: server-to-client and bare (pre-envelope) messages are
/// not valid on this frontend.
fn request(conn: u64, frame: &[u8]) -> Result<Result<CoreMsg, &'static str>, WireError> {
    if let Some((request, session, device, proof)) =
        wire::decode_packed_proof(frame, wire::TAG_SUBMIT)?
    {
        let (session, device) = (SessionId(session), DeviceId(device));
        return Ok(Ok(CoreMsg::Submit { conn, request, session, device, proof }));
    }
    Ok(match wire::decode(frame)? {
        Message::Issue(m) => Ok(CoreMsg::Issue { conn, request: m.request, device: m.device }),
        other => Err(other.name()),
    })
}

/// One `write` that takes what the socket has room for and never waits.
/// `O_NONBLOCK` belongs to the file description the reader shares: left
/// set, it would turn the reader's timed reads into a busy spin, so it is
/// set for this call only. A read already waiting keeps its timeout; one
/// starting inside the window gets `WouldBlock`, a poll timeout to it.
pub(super) fn write_now(sock: &TcpStream, bytes: &[u8]) -> io::Result<usize> {
    sock.set_nonblocking(true)?;
    let n = (&*sock).write(bytes);
    sock.set_nonblocking(false)?;
    n
}

/// A socket timeout (or signal) rather than a dead peer: try again later.
pub(super) fn timed_out(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut | io::ErrorKind::Interrupted
    )
}

impl Message {
    /// Short name for diagnostics.
    fn name(&self) -> &'static str {
        match self {
            Message::Challenge(_) => "challenge",
            Message::Proof(_) => "proof",
            Message::Report(_) => "report",
            Message::Issue(_) => "issue",
            Message::Grant(_) => "grant",
            Message::Submit(_) => "submit",
            Message::Verdict(_) => "verdict",
            Message::Reject(_) => "reject",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::state::CoreState;
    use super::super::NetConfig;
    use super::*;
    use crate::{Fleet, FleetConfig};
    use std::time::Duration;

    /// A peer that reads steadily while as much again keeps being owed is
    /// never caught up: hundreds of KiB stay parked pass after pass, for
    /// longer than the stall clock runs. It takes what it was owed within
    /// every window, though, so it is not cut off, and the bytes it has
    /// taken are dropped as it goes. Logical time: a pass every 5 ms.
    #[test]
    fn a_peer_that_keeps_up_stays_while_behind() {
        let idle = Duration::from_millis(500);
        let cfg =
            NetConfig { max_frame: usize::MAX, idle_frame_timeout: idle, ..NetConfig::default() };
        let shared = Arc::new(Shared { cfg, ..Shared::default() });
        let fleet = Fleet::new(FleetConfig { shards: 1, ..FleetConfig::default() });
        let mut state = CoreState::new(fleet, shared);
        let mut now = Duration::ZERO;
        assert_eq!(state.on_msg(CoreMsg::Register { conn: 1, sock: None }, now), None);
        // Queues at least `n` more bytes: a reject per unknown-device issue.
        let mut request = 0;
        let mut owe = |state: &mut CoreState, n: usize, now: Duration| {
            let target = state.owed(1).len() + n;
            while state.owed(1).len() < target {
                request += 1;
                let issue = CoreMsg::Issue { conn: 1, request, device: 99 };
                assert_eq!(state.on_msg(issue, now), None);
            }
        };

        // Park 256 KiB, the peer taking nothing yet.
        let backlog = 256 << 10;
        while state.owed(1).len() < backlog {
            owe(&mut state, 8 << 10, now);
            assert_eq!(state.took(1, 0, now), None);
        }
        // Each pass the peer takes up to 8 KiB and is owed as much again.
        let mut pushed = 0;
        let mut buffered = 0;
        while now < 3 * idle {
            now += Duration::from_millis(5);
            let n = state.owed(1).len().min(8 << 10);
            assert_eq!(state.took(1, n, now), None, "cut off after {now:?}");
            owe(&mut state, n, now);
            pushed += n;
            buffered = buffered.max(state.buffered(1));
        }
        assert!(!state.owed(1).is_empty(), "the peer never caught up");
        assert!(buffered < backlog + pushed, "taken bytes are dropped");
    }
}
