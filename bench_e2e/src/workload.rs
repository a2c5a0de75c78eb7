//! The four workloads behind one trait, and the loop that measures them.
//!
//! Every workload has the same shape: one full set-up (untimed), warm-up
//! rounds (discarded), then measured rounds for `--seconds` of wall time
//! with [`SETUP_SAMPLES`] × [`SETUP_REPEATS`] fresh set-ups spaced evenly
//! through that window.
//! A disturbance probe runs before and after every measured round.

use crate::closed::ClosedInproc;
use crate::measure::{Recorder, RoundRec, SetupParts};
use crate::net_closed::NetClosed;
use crate::net_paced::NetPaced;
use crate::probe::Probe;
use crate::span::Tracer;
use std::time::{Duration, Instant};

/// Points in the measured window at which set-ups are taken.
pub const SETUP_SAMPLES: usize = 9;
/// Back-to-back set-ups per point (see `measure::undisturbed_setup` for
/// what becomes of them).
pub const SETUP_REPEATS: usize = 3;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    InprocFull,
    DurablePox,
    NetPoxClosed,
    NetFullPaced,
}

impl Kind {
    pub const ALL: [Kind; 4] =
        [Kind::InprocFull, Kind::DurablePox, Kind::NetPoxClosed, Kind::NetFullPaced];

    pub fn name(self) -> &'static str {
        match self {
            Kind::InprocFull => "inproc_full",
            Kind::DurablePox => "durable_pox",
            Kind::NetPoxClosed => "net_pox_closed",
            Kind::NetFullPaced => "net_full_paced",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// How one workload run was asked for.
#[derive(Clone, Copy, Debug)]
pub struct Opts {
    pub kind: Kind,
    pub seed: u64,
    /// Wall-clock length of the measured window.
    pub seconds: f64,
    /// Traced run: every other round records spans and runs replicas.
    pub trace: bool,
    /// Tiny population, three rounds, one set-up sample.
    pub smoke: bool,
}

/// Registered devices per application.
pub const PER_APP: usize = 16_384;
const SMOKE_PER_APP: usize = 64;
const SMOKE_ACTIVE: usize = 24;
const SMOKE_ROUNDS: u32 = 3;

impl Opts {
    /// The population: `active` attesting devices at full scale.
    pub fn scale(&self, active: usize) -> crate::population::Scale {
        if self.smoke {
            crate::population::Scale::with_active(SMOKE_PER_APP, SMOKE_ACTIVE)
        } else {
            crate::population::Scale::with_active(PER_APP, active)
        }
    }
}

/// One workload, set up and ready to run rounds.
pub trait Workload {
    /// Rounds to run and discard before measuring.
    fn warmup_rounds(&self) -> usize;
    /// At least this much wall time must also pass in warm-up.
    fn warmup_time(&self) -> Duration {
        Duration::ZERO
    }
    /// Runs one round and describes it (the probe fields are filled in by
    /// the caller). `traced` asks for spans and replicas.
    fn round(&mut self, rec: &mut Recorder, index: u32, traced: bool) -> RoundRec;
    /// One fresh set-up, as a user would pay it, torn down again; returns
    /// what its parts cost.
    fn setup_sample(&mut self, rec: &mut Recorder) -> SetupParts;
    /// Tears the workload down and records its final counters.
    fn finish(self: Box<Self>, rec: &mut Recorder);
}

fn build(opts: &Opts, rec: &mut Recorder) -> Box<dyn Workload> {
    match opts.kind {
        Kind::InprocFull | Kind::DurablePox => Box::new(ClosedInproc::new(opts, rec)),
        Kind::NetPoxClosed => Box::new(NetClosed::new(opts, rec)),
        Kind::NetFullPaced => Box::new(NetPaced::new(opts, rec)),
    }
}

/// Sets the workload up, warms it, measures it, tears it down.
pub fn run(opts: &Opts) -> Recorder {
    let origin = Instant::now();
    let mut rec = Recorder::new(opts.trace.then(|| Tracer::new(origin)));
    let mut probe = Probe::new();
    let mut w = build(opts, &mut rec);

    let warm_start = Instant::now();
    let mut warmed = 0;
    while !opts.smoke && (warmed < w.warmup_rounds() || warm_start.elapsed() < w.warmup_time()) {
        w.round(&mut rec, 0, false);
        warmed += 1;
    }

    let window = Duration::from_secs_f64(opts.seconds);
    let samples = if opts.smoke { 1 } else { SETUP_SAMPLES };
    let start = Instant::now();
    let mut index: u32 = 0;
    let mut sampled = 0;
    loop {
        let elapsed = start.elapsed();
        if opts.smoke {
            if index >= SMOKE_ROUNDS {
                break;
            }
        } else if elapsed >= window {
            break;
        }
        // Sample k is due at (k + ½) / samples of the window.
        let due = window.mul_f64((sampled as f64 + 0.5) / samples as f64);
        if sampled < samples && (elapsed >= due || opts.smoke) {
            for _ in 0..if opts.smoke { 1 } else { SETUP_REPEATS } {
                let parts = w.setup_sample(&mut rec);
                rec.setups.push(parts);
            }
            sampled += 1;
            continue;
        }
        index += 1;
        let before = probe.before();
        let mut r = w.round(&mut rec, index, opts.trace && index & 1 == 0);
        r.host = probe.after(before);
        rec.rounds.push(r);
    }
    w.finish(&mut rec);
    rec
}
