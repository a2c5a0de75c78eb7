//! Graceful-drain lifecycle: the server handle and the shutdown
//! sequencing that gives every peer that keeps up each verdict it is owed.

use super::{CoreMsg, NetStats, Shared};
use crate::Fleet;
use std::net::SocketAddr;
use std::sync::atomic::Ordering;
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Join handles of every live connection's reader thread.
#[derive(Debug, Default)]
pub(crate) struct ConnThreads {
    pub(crate) readers: Vec<JoinHandle<()>>,
    /// Panic payloads harvested while reaping finished threads.
    panics: Vec<Box<dyn std::any::Any + Send + 'static>>,
}

impl ConnThreads {
    /// Joins readers that already finished (connections that came and
    /// went) — their `join` cannot block — so a long-lived server does not
    /// accumulate handles; a panic is kept for shutdown to report.
    pub(crate) fn reap(&mut self) {
        let (done, live) = std::mem::take(&mut self.readers)
            .into_iter()
            .partition::<Vec<_>, _>(|r| r.is_finished());
        self.readers = live;
        for reader in done {
            if let Err(panic) = reader.join() {
                // Re-raise at shutdown: zero-panic is part of the
                // server's contract and must not be lost to reaping.
                self.panics.push(panic);
            }
        }
    }
}

/// A running [`NetServer`](super::NetServer).
///
/// Dropping the handle without calling [`shutdown`](Self::shutdown) stops
/// the server *eventually* (the stop flag rises and threads exit on their
/// next poll) but does not wait, flush in-flight verdicts, or surface
/// panics — call `shutdown` for the graceful path.
#[derive(Debug)]
pub struct NetServerHandle {
    pub(super) addr: SocketAddr,
    pub(super) shared: Arc<Shared>,
    pub(super) threads: Arc<Mutex<ConnThreads>>,
    pub(super) core_tx: Option<Sender<CoreMsg>>,
    pub(super) acceptor: Option<JoinHandle<()>>,
    pub(super) core: Option<JoinHandle<Fleet>>,
}

impl NetServerHandle {
    /// The bound address (resolves port 0 binds).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live counter snapshot.
    #[must_use]
    pub fn stats(&self) -> NetStats {
        self.shared.stats.snapshot()
    }

    /// Connections currently holding threads.
    #[must_use]
    pub fn active_conns(&self) -> u64 {
        self.shared.active_conns.load(Ordering::Acquire)
    }

    /// Runs a management-plane operation against the live fleet on the
    /// core thread — serialized with client traffic, never concurrent
    /// with it — and blocks until it has been applied, returning its
    /// result. `None` if the server is already shutting down.
    ///
    /// This is how an operator deregisters a device (or rotates the
    /// provisioning epoch) while networked sessions are open: any
    /// in-flight submission racing the change is answered with a
    /// structured session reject, exactly as the in-process API would.
    pub fn admin<R, F>(&self, f: F) -> Option<R>
    where
        R: Send + 'static,
        F: FnOnce(&mut Fleet) -> R + Send + 'static,
    {
        let core_tx = self.core_tx.as_ref()?;
        let (tx, rx) = std::sync::mpsc::channel();
        let wrapped = Box::new(move |fleet: &mut Fleet| {
            let _ = tx.send(f(fleet));
        });
        core_tx.send(CoreMsg::Admin(wrapped)).ok()?;
        rx.recv().ok()
    }

    /// Graceful drain:
    ///
    /// 1. raise the stop flag — the acceptor refuses new connections;
    /// 2. join the acceptor, then every reader (they quiesce within one
    ///    poll interval, leaving their sockets open for replies);
    /// 3. close the command channel — the core applies the entire
    ///    remaining backlog, verifies it, emits every in-flight verdict,
    ///    keeps writing what each connection is owed while its peer reads,
    ///    sends FIN after the last byte, and returns the [`Fleet`].
    ///
    /// In-flight submissions are accepted work: every one of them gets
    /// its verdict (or expiry reject) frame before its socket closes,
    /// unless the stall clock ([`NetConfig::idle_frame_timeout`](super::NetConfig))
    /// cuts its peer off — at most two of its windows after the core stops.
    ///
    /// # Errors
    ///
    /// Returns the first panic payload if any server thread panicked —
    /// the soak tests lean on this to assert zero panics end-to-end.
    pub fn shutdown(mut self) -> std::thread::Result<(Fleet, NetStats)> {
        self.shared.stop.store(true, Ordering::Release);
        if let Some(acceptor) = self.acceptor.take() {
            acceptor.join()?;
        }
        let (readers, reaped) = {
            let mut t = self.threads.lock().expect("conn thread registry poisoned");
            (std::mem::take(&mut t.readers), std::mem::take(&mut t.panics))
        };
        if let Some(panic) = reaped.into_iter().next() {
            return Err(panic);
        }
        for reader in readers {
            reader.join()?;
        }
        // Readers are gone; dropping our sender disconnects the channel
        // once the core has consumed the backlog.
        drop(self.core_tx.take());
        let fleet = self.core.take().expect("shutdown consumes self; core taken once").join()?;
        Ok((fleet, self.shared.stats.snapshot()))
    }
}

impl Drop for NetServerHandle {
    fn drop(&mut self) {
        // Best-effort stop for the non-graceful path; threads detach and
        // exit on their next poll.
        self.shared.stop.store(true, Ordering::Release);
        drop(self.core_tx.take());
    }
}
