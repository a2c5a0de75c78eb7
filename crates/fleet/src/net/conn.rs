//! One thread per connection, and the core's side of every connection.
//!
//! The reader pulls bytes through a [`FrameReader`] (frame-size cap,
//! fail-fast magic/version checks) and forwards decoded requests — and any
//! protocol violation — to the core. It never writes: the core encodes
//! every reply into the connection's [`Outbox`] and hands it to the socket
//! in one `write` per pass that never waits. One connection carries any
//! number of devices.

use super::{bump, CoreMsg, NetConfig, Shared, StatsInner};
use crate::wire::{self, FrameReader, Message, WireError};
use crate::{DeviceId, SessionId};
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream};
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
        let _ = core_tx.send(CoreMsg::Register { conn, sock: out });
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

/// The core's half of a connection: replies are encoded straight into
/// one buffer, and the socket gets it in one `write` per pass. Bytes the
/// socket will not take stay parked for the next pass.
pub(crate) struct Outbox {
    sock: TcpStream,
    out: Vec<u8>,
    /// Bytes of `out` the socket has taken.
    sent: usize,
    /// Frames in `out`, credited to `frames_out` once it is all taken.
    frames: u64,
    /// Stall clock: when output was left parked, and the end of what was
    /// owed then. Reset only once the socket has taken that much, so a
    /// steady reader stays while more keeps coming and a trickle does not.
    behind: Option<(Instant, usize)>,
    /// FIN once everything owed has been taken.
    pub(crate) closing: bool,
}

impl Outbox {
    pub(crate) fn new(sock: TcpStream) -> Self {
        Self { sock, out: Vec::new(), sent: 0, frames: 0, behind: None, closing: false }
    }

    /// Appends one reply frame.
    pub(crate) fn push(&mut self, msg: &Message) {
        wire::encode_into(&mut self.out, msg);
        self.frames += 1;
    }

    /// Bytes owed to the peer that the socket has not taken yet.
    pub(crate) fn parked(&self) -> usize {
        self.out.len() - self.sent
    }

    /// Gives the socket what it will take without waiting. Returns `false`
    /// once the connection is done: FIN when a closing one is all taken;
    /// shutdown both ways (ending its reader too) when the peer is gone,
    /// has more than `max_frame` bytes parked, or has not taken within
    /// `idle_frame_timeout` what it was owed when it fell behind.
    pub(crate) fn flush(&mut self, cfg: &NetConfig, stats: &StatsInner) -> bool {
        if self.out.is_empty() && !self.closing {
            return true;
        }
        let mut gone = false;
        if self.parked() > 0 {
            match write_now(&self.sock, &self.out[self.sent..]) {
                Ok(n) => self.sent += n,
                Err(e) => gone = !timed_out(&e),
            }
        }
        if !gone && self.parked() == 0 {
            stats.frames_out.fetch_add(std::mem::take(&mut self.frames), Ordering::Relaxed);
            (self.sent, self.behind) = (0, None);
            self.out.clear();
            if self.closing {
                let _ = self.sock.shutdown(Shutdown::Write);
            }
            return !self.closing;
        }
        let since = match self.behind {
            Some((since, owed)) if self.sent < owed => since,
            _ => {
                // Fell behind, or kept up since: restart on what is owed now.
                self.out.drain(..self.sent);
                self.sent = 0;
                self.behind.insert((Instant::now(), self.out.len())).0
            }
        };
        if gone || self.parked() > cfg.max_frame || since.elapsed() >= cfg.idle_frame_timeout {
            let _ = self.sock.shutdown(Shutdown::Both);
            return false;
        }
        true
    }
}

/// One `write` that takes what the socket has room for and never waits.
/// `O_NONBLOCK` belongs to the file description the reader shares: left
/// set, it would turn the reader's timed reads into a busy spin, so it is
/// set for this call only. A read already waiting keeps its timeout; one
/// starting inside the window gets `WouldBlock`, a poll timeout to it.
fn write_now(sock: &TcpStream, bytes: &[u8]) -> io::Result<usize> {
    sock.set_nonblocking(true)?;
    let n = (&*sock).write(bytes);
    sock.set_nonblocking(false)?;
    n
}

/// A socket timeout (or signal) rather than a dead peer: try again later.
fn timed_out(e: &io::Error) -> bool {
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
    use super::*;
    use std::net::TcpListener;
    use std::time::Duration;

    /// A peer that reads steadily while as much again keeps being owed is
    /// never caught up: megabytes stay parked pass after pass, for longer
    /// than the stall clock runs. It takes what it was owed within every
    /// window, though, so it is not cut off, and the bytes it has taken
    /// are dropped as it goes.
    #[test]
    fn a_peer_that_keeps_up_stays_while_behind() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let mut out = Outbox::new(listener.accept().unwrap().0);
        let idle = Duration::from_millis(500);
        let cfg =
            NetConfig { max_frame: usize::MAX, idle_frame_timeout: idle, ..NetConfig::default() };
        let stats = StatsInner::default();

        // Fill the kernel's buffers, then park 2 MiB behind them.
        let backlog = 2 << 20;
        while out.parked() < backlog {
            out.out.resize(out.out.len() + (64 << 10), 0);
            assert!(out.flush(&cfg, &stats));
        }
        // Each pass the peer reads what has arrived (up to 64 KiB) and is
        // owed as much again.
        peer.set_nonblocking(true).unwrap();
        let mut buf = vec![0u8; 64 << 10];
        let mut pushed = 0;
        let start = Instant::now();
        while start.elapsed() < 3 * idle {
            thread::sleep(Duration::from_millis(2));
            let n = match peer.read(&mut buf) {
                Ok(0) => panic!("cut off after {:?}", start.elapsed()),
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => 0,
                Err(e) => panic!("cut off after {:?}: {e}", start.elapsed()),
            };
            out.out.resize(out.out.len() + n, 0);
            assert!(out.flush(&cfg, &stats), "cut off after {:?}", start.elapsed());
            pushed += n;
        }
        assert!(out.parked() > 0, "the peer never caught up");
        assert!(out.out.len() < backlog + pushed, "taken bytes are dropped");
    }
}
