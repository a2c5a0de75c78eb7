//! The networked fleet frontend: a hand-rolled TCP server speaking the
//! [`wire`](crate::wire) codec, so real devices (or simulated fleets) can
//! reach a [`Fleet`](crate::Fleet) over a socket instead of an in-process
//! call.
//!
//! # Architecture
//!
//! Plain threads over blocking-with-timeout sockets (no async runtime),
//! around a core that does no I/O:
//!
//! ```text
//!            ┌───────────┐   nonblocking accept loop
//!            │ acceptor  │── caps live connections, spawns a reader each
//!            └─────┬─────┘
//!        ┌─────────┼──────────┐
//!   ┌────▼───┐ ┌───▼────┐ ┌───▼────┐      one reader thread per
//!   │ conn 0 │ │ conn 1 │ │ conn N │      connection; requests and
//!   │   rd   │ │   rd   │ │   rd   │      violations go to the core (mpsc)
//!   └──┬──▲──┘ └──┬──▲──┘ └──┬──▲──┘
//!      │  └───────┼──┴───────┼──┴─── reply bytes: one write per socket
//!      └──────────▼──────────▼────┐  per pass, never waiting
//!                 │  core driver  │  channel, sockets, wall clock
//!                 │ ┌───────────┐ │
//!                 │ │ CoreState │ │  owns the Fleet: issues, submits,
//!                 │ └───────────┘ │  sheds, verifies, owes, cuts off
//!                 └───────────────┘
//! ```
//!
//! * **Sans-I/O core.** `CoreState` decides in pure steps given the time
//!   since start; the core thread only feeds it the channel, the wall
//!   clock and each `write`'s result, and sends the FIN or cut-off it
//!   returns. A seeded simulation drives the same steps with no socket.
//! * **Multiplexing.** Many devices share one connection; a reply echoes
//!   its request's client-chosen id, so verdicts return in any order.
//! * **Work-conserving verification.** The core applies every command
//!   already queued, then verifies (or once 512 submissions are pending)
//!   and replies for exactly the sessions that pass settled: no timer
//!   sits between a submission and its verdict.
//! * **Hostile input.** Each reader has a frame-size cap
//!   ([`NetConfig::max_frame`]) and a stalled-frame deadline
//!   ([`NetConfig::idle_frame_timeout`], the slow-loris defense); every
//!   violation is answered with a structured
//!   [`RejectMsg`](crate::wire::RejectMsg) before the connection closes.
//!   The same two knobs cut off a peer that does not read.
//! * **Load shedding.** A submission whose shard's queue depth
//!   ([`Fleet::ingest_depth_of`](crate::Fleet::ingest_depth_of)) is at
//!   [`NetConfig::shed_watermark`] is answered
//!   [`RejectReason::Overloaded`] instead of queued.
//! * **Logical clock.** Deadlines count [`NetConfig::tick`]s from the
//!   latest issuance the served fleet already holds. Every
//!   [`NetConfig::drain_interval`] a housekeeping pass expires overdue
//!   challenges, answers submissions whose device was deregistered under
//!   them, and prunes resolved history.
//! * **Graceful drain.** [`NetServerHandle::shutdown`] stops the
//!   acceptor and readers, lets the core apply and verify the backlog and
//!   write to each peer until it has taken everything, then FIN (or cut
//!   off one the stall clock catches). The `Fleet` comes back out.
//!
//! Modules: `state.rs` the core's decisions, `server.rs` the acceptor and
//! the core's driver, `conn.rs` the readers and the socket write,
//! `drain.rs` shutdown, `client.rs` a blocking [`NetClient`], and
//! `sim.rs` (tests only) the seeded simulation of the core.

mod client;
mod conn;
mod drain;
mod server;
mod state;

pub use client::NetClient;
pub use drain::NetServerHandle;
pub use server::NetServer;

use crate::wire::PackedProof;
use crate::{DeviceId, SessionId};
use dialed::report::{RejectClass, RejectReason};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

/// Tuning knobs for a [`NetServer`]. `Default` is sized for tests and
/// local soaks; production would raise the capacity knobs.
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// Bind address. Port 0 picks an ephemeral port (read it back from
    /// [`NetServerHandle::addr`]).
    pub bind: String,
    /// Per-frame payload cap in bytes (a frame announcing more is refused
    /// at its header), and the most reply bytes parked for a peer.
    pub max_frame: usize,
    /// Live-connection cap. Connections beyond it are answered with an
    /// [`Overloaded`](dialed::report::RejectReason::Overloaded) reject and
    /// closed without a thread being spawned.
    pub max_conns: usize,
    /// How long a connection may hold a frame incomplete before it is
    /// closed as a slow-loris writer. The clock starts when partial bytes
    /// arrive and only resets when a frame completes, so trickling one
    /// byte per poll does not defeat it. On the same terms, a peer that
    /// falls behind on its replies is cut off unless it takes, within this
    /// long, what it was owed when it fell behind.
    pub idle_frame_timeout: Duration,
    /// Granularity of accept/read polling (socket timeouts and the
    /// acceptor's idle sleep), and how often replies a peer has not taken
    /// yet are retried. Smaller is snappier shutdown, more wakeups.
    pub poll_interval: Duration,
    /// Per-shard ingest depth at which submissions are shed with
    /// [`Overloaded`](dialed::report::RejectReason::Overloaded).
    pub shed_watermark: usize,
    /// Housekeeping cadence: how often the core expires overdue
    /// challenges and prunes resolved sessions. Verdict latency does not
    /// depend on it — verification runs whenever work is queued.
    pub drain_interval: Duration,
    /// Wall-time length of one logical tick (the unit of the fleet's
    /// challenge deadlines).
    pub tick: Duration,
}

impl Default for NetConfig {
    fn default() -> Self {
        Self {
            bind: "127.0.0.1:0".to_string(),
            max_frame: 1 << 20,
            max_conns: 1024,
            idle_frame_timeout: Duration::from_secs(2),
            poll_interval: Duration::from_millis(5),
            shed_watermark: 4096,
            drain_interval: Duration::from_millis(20),
            tick: Duration::from_millis(50),
        }
    }
}

/// Counter snapshot of a running (or finished) server; see
/// [`NetServerHandle::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Connections accepted and given threads.
    pub conns_accepted: u64,
    /// Connections refused at the cap (answered `Overloaded`, closed).
    pub conns_shed: u64,
    /// Well-formed frames read off sockets.
    pub frames_in: u64,
    /// Frames sockets have taken whole (grants, verdicts, rejects).
    pub frames_out: u64,
    /// Challenges granted.
    pub granted: u64,
    /// Submissions accepted into ingest (each owes a verdict).
    pub submitted: u64,
    /// Submissions shed at the ingest watermark (`Overloaded` replies).
    pub shed: u64,
    /// Session/registry-layer rejections (replays, duplicates, unknown
    /// principals, expired sessions at submit time).
    pub session_rejects: u64,
    /// Wire-protocol violations (bad magic/version, oversized or
    /// undecodable frames, stalled slow-loris frames, unexpected message
    /// types) — each answered with a structured reject, then closed.
    pub protocol_errors: u64,
    /// Verdict frames emitted by verify passes.
    pub verdicts: u64,
    /// In-flight submissions whose session expired before a verify pass
    /// resolved them (answered with an expiry reject).
    pub expired: u64,
    /// Passes run by the core: verify passes plus housekeeping passes (at
    /// least one per [`NetConfig::drain_interval`], even when idle).
    pub drains: u64,
    /// Every rejection this server produced, bucketed by
    /// [`RejectClass`] (indexed by [`RejectClass::index`]). Counts both
    /// pre-verification rejects (session violations, shed submissions,
    /// protocol errors, expiry) and verifier rejections, so a
    /// corpus replay over the network can account for every expected
    /// reject class exactly.
    pub rejects_by_class: [u64; RejectClass::ALL.len()],
}

impl NetStats {
    /// Rejections recorded for one [`RejectClass`].
    #[must_use]
    pub fn rejects_for(&self, class: RejectClass) -> u64 {
        self.rejects_by_class[class.index()]
    }

    /// Total rejections across every class.
    #[must_use]
    pub fn total_rejects(&self) -> u64 {
        self.rejects_by_class.iter().sum()
    }
}

impl std::fmt::Display for NetStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "conns {}/{} shed, frames {} in / {} out, granted {}, submitted {} \
             ({} shed, {} session-rejected, {} expired), verdicts {}, \
             protocol errors {}, drains {}",
            self.conns_accepted,
            self.conns_shed,
            self.frames_in,
            self.frames_out,
            self.granted,
            self.submitted,
            self.shed,
            self.session_rejects,
            self.expired,
            self.verdicts,
            self.protocol_errors,
            self.drains,
        )?;
        let mut sep = ", rejects by class: ";
        for class in RejectClass::ALL {
            let n = self.rejects_for(class);
            if n > 0 {
                write!(f, "{sep}{class} {n}")?;
                sep = ", ";
            }
        }
        Ok(())
    }
}

/// Live counters, shared by every server thread.
#[derive(Debug, Default)]
pub(crate) struct StatsInner {
    pub(crate) conns_accepted: AtomicU64,
    pub(crate) conns_shed: AtomicU64,
    pub(crate) frames_in: AtomicU64,
    pub(crate) frames_out: AtomicU64,
    pub(crate) granted: AtomicU64,
    pub(crate) submitted: AtomicU64,
    pub(crate) shed: AtomicU64,
    pub(crate) session_rejects: AtomicU64,
    pub(crate) protocol_errors: AtomicU64,
    pub(crate) verdicts: AtomicU64,
    pub(crate) expired: AtomicU64,
    pub(crate) drains: AtomicU64,
    pub(crate) rejects_by_class: [AtomicU64; RejectClass::ALL.len()],
}

impl StatsInner {
    /// Buckets one rejection under its [`RejectClass`]. Every code path
    /// that emits a reject frame (or counts a shed connection) calls this
    /// exactly once, so the per-class counters sum to the rejects the
    /// server actually produced.
    pub(crate) fn note_reject(&self, reason: &RejectReason) {
        bump(&self.rejects_by_class[reason.class().index()]);
    }

    pub(crate) fn snapshot(&self) -> NetStats {
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        NetStats {
            conns_accepted: get(&self.conns_accepted),
            conns_shed: get(&self.conns_shed),
            frames_in: get(&self.frames_in),
            frames_out: get(&self.frames_out),
            granted: get(&self.granted),
            submitted: get(&self.submitted),
            shed: get(&self.shed),
            session_rejects: get(&self.session_rejects),
            protocol_errors: get(&self.protocol_errors),
            verdicts: get(&self.verdicts),
            expired: get(&self.expired),
            drains: get(&self.drains),
            rejects_by_class: std::array::from_fn(|i| get(&self.rejects_by_class[i])),
        }
    }
}

pub(crate) fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

/// State shared by the acceptor, every connection thread, and the core.
#[derive(Debug, Default)]
pub(crate) struct Shared {
    pub(crate) cfg: NetConfig,
    pub(crate) stop: AtomicBool,
    pub(crate) active_conns: AtomicU64,
    pub(crate) stats: StatsInner,
}

impl Shared {
    pub(crate) fn stopping(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }
}

/// Commands from connection readers (and the handle) to the core thread,
/// the sole owner of the [`Fleet`](crate::Fleet) and sole writer of replies.
pub(crate) enum CoreMsg {
    /// A connection came up; the driver takes `sock` out and writes the
    /// connection's replies through it.
    Register { conn: u64, sock: Option<TcpStream> },
    /// A device asks for a challenge.
    Issue { conn: u64, request: u64, device: u64 },
    /// A device submits a proof for an open session, held packed as the
    /// frame carried it.
    Submit { conn: u64, request: u64, session: SessionId, device: DeviceId, proof: PackedProof },
    /// The peer broke the protocol: the core answers with a structured
    /// reject, then closes the connection as for [`ConnClosed`](Self::ConnClosed).
    Violation { conn: u64, detail: String },
    /// The peer went away (EOF or socket error) — the core sends FIN once
    /// what it owes is taken, and forgets the connection and its in-flight
    /// verdicts. *Not* sent when a reader quiesces for shutdown: those
    /// connections stay registered so the final drain can still deliver.
    ConnClosed { conn: u64 },
    /// A management-plane operation against the live fleet (device
    /// deregistration, epoch rotation, …), run on the core thread between
    /// client requests — serialized with them, never concurrent. See
    /// [`NetServerHandle::admin`].
    Admin(Box<dyn FnOnce(&mut crate::Fleet) + Send>),
}

#[cfg(test)]
mod sim;
