//! `inproc_full` and `durable_pox`: closed loops against an in-process
//! fleet, in memory or on a write-ahead log.

use crate::inproc::{Inproc, RoundTimes, TraceCtx, HISTORY_ROUNDS, REAL, TWIN};
use crate::layers::{self, Parents, Replicas, Sampled};
use crate::measure::{Recorder, RoundRec, SetupParts, NO_READINGS};
use crate::meter::Meter;
use crate::population::{self, ActiveDev, Backing, BuiltOp, Scale};
use crate::procfs;
use crate::workload::{Kind, Opts, Workload};
use dialed::pipeline::InstrumentMode;
use std::path::PathBuf;
use std::time::Instant;

/// Measured rounds over which written bytes are counted. A fixed count, so
/// the per-verdict figure does not depend on how many rounds a run fits.
const WAL_ROUNDS: u32 = 32;

/// Accumulator names.
pub mod acc {
    pub const ISSUE: &str = "session.issue";
    pub const SUBMIT_WIRE: &str = "fleet.submit_wire";
    pub const DRAIN: &str = "ingest.drain";
    pub const PRUNE: &str = "session.prune";
    pub const SERVER: &str = "round.server";
    pub const PROVE: &str = "loadgen.prove";
    pub const STEPS: &str = "msp430.steps";
    pub const COMMIT: &str = "store.commit";
    pub const WAL_BYTES: &str = "store.wal_bytes";
    pub const RECOVER: &str = "store.recover";
    pub const REGISTER: &str = "registry.register";
    pub const CPU: &str = "proc.cpu";
    pub const ALLOCS: &str = "proc.allocs";
    pub const DRAINS: &str = "ingest.drains";
    pub const RECOVER_EVENTS: &str = "store.recover_events";
    pub const SHARD_IMBALANCE: &str = "shard.imbalance";
    pub const NET_RTT: &str = "net.rtt";
    pub const NET_OVERHEAD: &str = "net.overhead";
    pub const NET_REJECT: &str = "net.reject";
    pub const NET_FRAMES_IN: &str = "net.frames_in";
    pub const NET_SHED: &str = "net.shed";
    pub const NET_VERDICTS_PER_DRAIN: &str = "net.verdicts_per_drain";
    pub const NET_PROTOCOL_ERRORS: &str = "net.protocol_errors";
    pub const LATENESS_P99_MS: &str = "loadgen.lateness_p99_ms";
}

pub struct ClosedInproc {
    mode: InstrumentMode,
    scale: Scale,
    seed: u64,
    trace: bool,
    ops: Vec<BuiltOp>,
    devs: Vec<ActiveDev>,
    main: Inproc,
    /// In-memory twin of a durable fleet (traced durable runs).
    twin: Option<Inproc>,
    replicas: Option<Replicas>,
    /// Durable only: the run's directory, and inside it the live state and
    /// a pristine copy of the populated state that set-up samples recover
    /// copies of.
    dirs: Option<Dirs>,
}

struct Dirs {
    work: PathBuf,
    pristine: PathBuf,
    sample: PathBuf,
}

impl ClosedInproc {
    pub fn new(opts: &Opts, rec: &mut Recorder) -> Self {
        let durable = opts.kind == Kind::DurablePox;
        let (mode, active) = if durable {
            (InstrumentMode::Original, 3 * 512)
        } else {
            (InstrumentMode::Full, 3 * 256)
        };
        let scale = opts.scale(active);
        let dirs = durable.then(|| {
            let work = population::work_dir(opts.kind.name());
            Dirs { pristine: work.join("pristine"), sample: work.join("sample"), work }
        });
        let setup = match &dirs {
            Some(d) => {
                let live = d.work.join("live");
                let setup = population::fresh(mode, scale, opts.seed, Backing::Durable(&live));
                population::copy_dir(&live, &d.pristine).expect("state directory copies");
                setup
            }
            None => population::fresh(mode, scale, opts.seed, Backing::Memory),
        };
        rec.add_time(acc::REGISTER, setup.register, 3 * scale.per_app);
        let devs = population::boot_active(&setup, scale);
        rec.values.insert(acc::SHARD_IMBALANCE, population::shard_imbalance(&setup.fleet, &devs));
        let replicas = opts.trace.then(|| Replicas::new(&setup, &devs));
        let twin =
            (opts.trace && durable).then(|| Inproc::twin(mode, scale, opts.seed, devs.len()));
        Self {
            mode,
            scale,
            seed: opts.seed,
            trace: opts.trace,
            main: Inproc::new(setup.fleet, devs.len()),
            ops: setup.ops,
            devs,
            twin,
            replicas,
            dirs,
        }
    }
}

/// Folds a real (or twin) round's phase times into the per-layer sums.
pub fn add_phases(rec: &mut Recorder, t: &RoundTimes, n: usize) {
    rec.add_time(acc::ISSUE, t.issue, n);
    rec.add_time(acc::SUBMIT_WIRE, t.submit, n);
    rec.add_time(acc::DRAIN, t.drain, n);
    rec.add_time(acc::PRUNE, t.prune, n);
}

impl Workload for ClosedInproc {
    fn warmup_rounds(&self) -> usize {
        HISTORY_ROUNDS + 3
    }

    fn round(&mut self, rec: &mut Recorder, index: u32, traced: bool) -> RoundRec {
        let n = self.devs.len();
        let mut fresh = Vec::new();
        let start = Instant::now();
        let root = rec.open_round(traced, index, start);
        // In a traced run the plain rounds are the metered ones.
        let mut meter = Meter::new(self.trace && !traced && index > 0);
        let wal_window = self.dirs.is_some() && (1..=WAL_ROUNDS).contains(&index);
        let written = if wal_window { procfs::written_bytes() } else { 0 };

        let trace = match (traced, rec.tracer.as_mut()) {
            (true, Some(tracer)) => {
                Some(TraceCtx { tracer, round: index, parent: root, names: &REAL })
            }
            _ => None,
        };
        let t = self.main.round(&self.devs, trace, &mut meter, &mut fresh);

        if wal_window {
            rec.add(acc::WAL_BYTES, (procfs::written_bytes() - written) as f64, n as f64);
        }
        let lat_start = rec.lat_ns.len();
        let end = self.main.drain_end;
        rec.lat_ns.extend(self.main.entries.iter().map(|&e| (end - e).as_nanos() as u64));
        rec.note_outcomes(n, &mut fresh);

        if traced {
            add_phases(rec, &t, n);
            rec.add_time(acc::SERVER, t.server(), n);
            rec.add_time(acc::PROVE, t.prove, n);
            rec.add(acc::STEPS, t.emulated_insns as f64, t.matched as f64);
            rec.add(acc::DRAINS, n as f64, 1.0);

            let replica_start = Instant::now();
            if let (Some(twin), Some(tracer)) = (self.twin.as_mut(), rec.tracer.as_mut()) {
                let ctx = TraceCtx { tracer, round: index, parent: root, names: &TWIN };
                let tt = twin.round(&self.devs, Some(ctx), &mut Meter::new(false), &mut fresh);
                fresh.clear(); // the twin's outcomes are not the program's
                let extra = t.server().as_secs_f64() - tt.server().as_secs_f64();
                rec.add(acc::COMMIT, extra, n as f64);
            }
            if let Some(replicas) = self.replicas.as_mut() {
                let chals = self.main.challenges();
                let sample: Vec<Sampled<'_>> = layers::sample_indices(n, layers::SAMPLE)
                    .map(|i| Sampled {
                        dev: i,
                        frame: &self.main.frames[i],
                        challenge: chals[i].challenge,
                    })
                    .collect();
                let parents =
                    Parents { prove: t.prove_span, submit: t.submit_span, drain: t.drain_span };
                replicas.run(rec, index, parents, &self.ops, &self.devs, &sample);
            }
            rec.close_round(root, index, replica_start);
        }
        meter.record(rec, n);

        RoundRec {
            traced,
            host: NO_READINGS,
            server_s: t.server().as_secs_f64(),
            verdicts: n as u32,
            lat: lat_start..rec.lat_ns.len(),
        }
    }

    fn setup_sample(&mut self, rec: &mut Recorder) -> SetupParts {
        let setup = match &self.dirs {
            Some(d) => {
                let _ = std::fs::remove_dir_all(&d.sample);
                population::copy_dir(&d.pristine, &d.sample).expect("state directory copies");
                population::recovered(self.mode, &d.sample)
            }
            None => population::fresh(self.mode, self.scale, self.seed, Backing::Memory),
        };
        let devices = 3 * self.scale.per_app;
        assert_eq!(setup.fleet.devices().count(), devices, "set-up holds the whole population");
        if self.dirs.is_some() {
            // Recovery restores one record per device and per operation.
            rec.add(acc::RECOVER, setup.recover.as_secs_f64(), 1.0);
            rec.add(acc::RECOVER_EVENTS, (devices + setup.ops.len()) as f64, 1.0);
        } else {
            rec.add_time(acc::REGISTER, setup.register, devices);
        }
        setup.parts
    }

    fn finish(self: Box<Self>, _rec: &mut Recorder) {
        let Self { main, twin, dirs, .. } = *self;
        drop((main, twin));
        if let Some(d) = dirs {
            let _ = std::fs::remove_dir_all(&d.work);
        }
    }
}
