//! The core's decisions, without I/O: [`CoreState`] moves only when the
//! driver (`server.rs`) calls a step with the time since start, so a
//! seeded simulation (`sim.rs`) drives it on a logical clock. A step that
//! ends a connection says how: `Some(Shutdown::Write)` is FIN,
//! `Some(Shutdown::Both)` cuts the peer off (ending its reader too).

use super::{bump, CoreMsg, Shared};
use crate::session::IdMap;
use crate::wire::{self, GrantMsg, Message, RejectMsg, VerdictMsg};
use crate::{DeviceId, Fleet, SessionId, SessionState};
use dialed::report::{Finding, RejectReason};
use std::net::Shutdown;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// One connection's replies, encoded straight into one buffer.
#[derive(Default)]
struct Outbox {
    out: Vec<u8>,
    /// Bytes of `out` the peer has taken.
    sent: usize,
    /// Frames in `out`, credited to `frames_out` once it is all taken.
    frames: u64,
    /// Stall clock: when output was left parked, and the end of what was
    /// owed then. Reset only once the peer has taken that much, so a
    /// steady reader stays while more keeps coming and a trickle does not.
    behind: Option<(Duration, usize)>,
    /// FIN once everything owed has been taken.
    closing: bool,
}

/// The core: sole owner of the [`Fleet`], the in-flight table and each
/// connection's reply buffer and stall clock. No socket, clock, channel
/// or thread.
pub(crate) struct CoreState {
    fleet: Fleet,
    shared: Arc<Shared>,
    conns: IdMap<u64, Outbox>,
    /// Accepted-but-unresolved submissions: session id → who gets the
    /// verdict. Every entry is owed exactly one reply frame.
    inflight: IdMap<u64, (u64, u64)>,
    /// The sessions the last verify pass settled; kept so a pass reuses
    /// its capacity instead of allocating.
    settled: Vec<SessionId>,
    /// The logical time at start: the latest issuance among the sessions
    /// the fleet already holds (0 for a fresh one), so a recovered or
    /// in-process-driven fleet keeps the clock its deadlines count on.
    origin: u64,
}

impl CoreState {
    pub(crate) fn new(fleet: Fleet, shared: Arc<Shared>) -> Self {
        let origin = fleet
            .shards()
            .iter()
            .flat_map(|shard| shard.sessions().sessions())
            .map(|s| s.issued_at)
            .max()
            .unwrap_or(0);
        let (conns, inflight) = (IdMap::default(), IdMap::default());
        Self { fleet, shared, conns, inflight, settled: Vec::new(), origin }
    }

    pub(crate) fn into_fleet(self) -> Fleet {
        self.fleet
    }

    /// Submissions accepted and not yet verified.
    pub(crate) fn pending(&self) -> usize {
        self.fleet.pending()
    }

    /// Time since start → logical ticks (the unit of session deadlines).
    fn ticks(&self, now: Duration) -> u64 {
        let tick = self.shared.cfg.tick.as_nanos().max(1);
        self.origin.saturating_add(u64::try_from(now.as_nanos() / tick).unwrap_or(u64::MAX))
    }

    /// Applies one command. Returns the connection it took past
    /// `max_frame` parked bytes, for the driver to flush at once.
    pub(crate) fn on_msg(&mut self, msg: CoreMsg, now: Duration) -> Option<u64> {
        let now = self.ticks(now);
        let conn = match msg {
            CoreMsg::Register { conn, .. } => {
                self.conns.insert(conn, Outbox::default());
                return None;
            }
            CoreMsg::ConnClosed { conn } => {
                self.close(conn);
                return None;
            }
            CoreMsg::Admin(f) => {
                f(&mut self.fleet);
                return None;
            }
            CoreMsg::Violation { conn, detail } => {
                // `request` 0: the error belongs to the connection, not to
                // any request.
                bump(&self.shared.stats.protocol_errors);
                self.reject(conn, 0, RejectReason::MalformedSubmission { detail });
                self.close(conn);
                conn
            }
            // A request of a connection the core no longer holds, or is
            // closing, is owed no reply: apply nothing for it.
            CoreMsg::Issue { conn, .. } | CoreMsg::Submit { conn, .. } if !self.serves(conn) => {
                return None;
            }
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
                conn
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
                } else {
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
                conn
            }
        };
        (self.owed(conn).len() > self.shared.cfg.max_frame).then_some(conn)
    }

    /// The verify pass that ends a burst: verifies every queued submission
    /// and replies for exactly the sessions that settled.
    pub(crate) fn end_of_burst(&mut self) {
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
    /// challenges, answer in-flight submissions whose device was
    /// deregistered under them, prune resolved history.
    pub(crate) fn housekeeping(&mut self, now: Duration) {
        let now = self.ticks(now);
        self.fleet.expire(now);
        let mut inflight = std::mem::take(&mut self.inflight);
        inflight.retain(|&session, &mut (conn, request)| {
            !self.resolve(SessionId(session), conn, request)
        });
        self.inflight = inflight;
        self.fleet.prune_resolved(now);
        bump(&self.shared.stats.drains);
    }

    /// Whether `conn` is held and not closing: its requests get replies.
    fn serves(&self, conn: u64) -> bool {
        self.conns.get(&conn).is_some_and(|out| !out.closing)
    }

    /// The bytes owed to `conn` that its peer has not taken yet.
    pub(crate) fn owed(&self, conn: u64) -> &[u8] {
        self.conns.get(&conn).map_or(&[], |out| &out.out[out.sent..])
    }

    /// The peer took `n` of the bytes [`owed`](Self::owed) to it at `now`:
    /// FIN once a closing connection has taken everything; cut off when
    /// more than `max_frame` bytes stay parked, or when it has not taken
    /// within `idle_frame_timeout` what it was owed when it fell behind.
    pub(crate) fn took(&mut self, conn: u64, n: usize, now: Duration) -> Option<Shutdown> {
        let cfg = &self.shared.cfg;
        let Some(out) = self.conns.get_mut(&conn) else { return Some(Shutdown::Both) };
        out.sent += n;
        let end = if out.sent == out.out.len() {
            let frames = std::mem::take(&mut out.frames);
            self.shared.stats.frames_out.fetch_add(frames, Ordering::Relaxed);
            (out.sent, out.behind) = (0, None);
            out.out.clear();
            out.closing.then_some(Shutdown::Write)
        } else {
            let since = match out.behind {
                Some((since, owed)) if out.sent < owed => since,
                _ => {
                    // Fell behind, or kept up since: restart on what is owed now.
                    out.out.drain(..out.sent);
                    out.sent = 0;
                    out.behind.insert((now, out.out.len())).0
                }
            };
            let stalled = now.saturating_sub(since) >= cfg.idle_frame_timeout;
            (out.out.len() - out.sent > cfg.max_frame || stalled).then_some(Shutdown::Both)
        };
        if end.is_some() {
            self.conns.remove(&conn);
        }
        end
    }

    /// The peer is gone (its socket failed): forget the connection.
    pub(crate) fn gone(&mut self, conn: u64) -> Option<Shutdown> {
        self.conns.remove(&conn);
        Some(Shutdown::Both)
    }

    /// Shutdown, after the last housekeeping: every connection gets FIN
    /// once it has taken all it is owed.
    pub(crate) fn closing(&mut self) {
        debug_assert!(self.inflight.is_empty(), "shutdown left verdicts unemitted");
        self.conns.values_mut().for_each(|out| out.closing = true);
    }

    /// Forgets a connection: FIN once it has taken what it is owed so far;
    /// in-flight verdicts for it are undeliverable.
    fn close(&mut self, conn: u64) {
        if let Some(out) = self.conns.get_mut(&conn) {
            out.closing = true;
        }
        self.inflight.retain(|_, &mut (c, _)| c != conn);
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
                    // count it under the verifier's own reason class.
                    let pox = body.report.findings.iter().find_map(|f| match f {
                        Finding::PoxRejected { reason } => Some(reason),
                        _ => None,
                    });
                    if let Some(reason) = pox {
                        stats.note_reject(reason);
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

    /// Encodes a reply into its connection's buffer.
    fn send(&mut self, conn: u64, msg: &Message) {
        if let Some(out) = self.conns.get_mut(&conn) {
            wire::encode_into(&mut out.out, msg);
            out.frames += 1;
        }
    }

    fn reject(&mut self, conn: u64, request: u64, reason: RejectReason) {
        self.shared.stats.note_reject(&reason);
        self.send(conn, &Message::Reject(RejectMsg { request, reason }));
    }
}

#[cfg(test)]
impl CoreState {
    /// Bytes `conn`'s buffer holds, taken or not.
    pub(super) fn buffered(&self, conn: u64) -> usize {
        self.conns.get(&conn).map_or(0, |out| out.out.len())
    }

    /// Sessions the fleet holds, over all shards.
    pub(super) fn sessions(&self) -> usize {
        self.fleet.shards().iter().map(|shard| shard.sessions().len()).sum()
    }
}
