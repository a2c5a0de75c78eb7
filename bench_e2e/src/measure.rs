//! What a run records and how the records become metrics.

use crate::probe::{self, Limits, Readings};
use crate::span::{SpanId, Tracer};
use crate::stats;
use std::collections::BTreeMap;
use std::ops::Range;
use std::time::{Duration, Instant};

/// One measured round (for `net_full_paced`, one paced segment).
#[derive(Clone, Debug)]
pub struct RoundRec {
    /// Spans and replicas were taken during this round.
    pub traced: bool,
    /// What the host did around the round.
    pub host: Readings,
    /// Timed server time of the round, in seconds.
    pub server_s: f64,
    /// Submissions whose outcome arrived during the round.
    pub verdicts: u32,
    /// This round's verdict latencies, as a range of [`Recorder::lat_ns`].
    pub lat: Range<usize>,
}

/// Placeholder until the caller of a round fills the readings in.
pub const NO_READINGS: Readings = Readings { alu: (0.0, 0.0), steal: 0 };

/// One set-up, as the consecutive timed parts it consists of (see
/// `population::Setup::parts`). Every set-up of a run has the same parts.
pub type SetupParts = Vec<Duration>;

/// A sum and the count it is a sum over.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Acc {
    pub sum: f64,
    pub n: f64,
}

impl Acc {
    pub fn mean(&self) -> f64 {
        if self.n > 0.0 {
            self.sum / self.n
        } else {
            0.0
        }
    }
}

/// Everything a run records.
pub struct Recorder {
    pub rounds: Vec<RoundRec>,
    pub lat_ns: Vec<u64>,
    /// Every set-up taken in the measured window.
    pub setups: Vec<SetupParts>,
    /// Submissions made in measured rounds, and those whose outcome was
    /// not the one their device's role requires.
    pub attempted: u64,
    pub failed: u64,
    /// Descriptions of the first few failed submissions.
    pub mismatches: Vec<String>,
    /// Per-layer sums, by accumulator name (traced runs).
    pub layers: BTreeMap<&'static str, Acc>,
    /// Per-layer values that are not a sum over a count.
    pub values: BTreeMap<&'static str, f64>,
    pub tracer: Option<Tracer>,
}

/// Most mismatches kept verbatim; the rest are only counted.
const MAX_LISTED: usize = 20;

impl Recorder {
    pub fn new(tracer: Option<Tracer>) -> Self {
        Self {
            rounds: Vec::new(),
            lat_ns: Vec::with_capacity(1 << 20),
            setups: Vec::new(),
            attempted: 0,
            failed: 0,
            mismatches: Vec::new(),
            layers: BTreeMap::new(),
            values: BTreeMap::new(),
            tracer,
        }
    }

    pub fn add(&mut self, name: &'static str, sum: f64, n: f64) {
        let acc = self.layers.entry(name).or_default();
        acc.sum += sum;
        acc.n += n;
    }

    pub fn add_time(&mut self, name: &'static str, d: Duration, n: usize) {
        self.add(name, d.as_secs_f64(), n as f64);
    }

    /// Folds one round's outcome count in; `fresh` holds the descriptions
    /// of its failed submissions.
    pub fn note_outcomes(&mut self, attempted: usize, fresh: &mut Vec<String>) {
        self.attempted += attempted as u64;
        self.failed += fresh.len() as u64;
        let room = MAX_LISTED.saturating_sub(self.mismatches.len());
        self.mismatches.extend(fresh.drain(..).take(room));
    }

    pub fn mean(&self, name: &str) -> f64 {
        self.layers.get(name).map_or(0.0, Acc::mean)
    }

    /// Opens the `round` span of a traced round; 0 in a plain round.
    pub fn open_round(&mut self, traced: bool, index: u32, start: Instant) -> SpanId {
        match self.tracer.as_mut() {
            Some(tr) if traced => tr.open(0, index, "round", start),
            _ => 0,
        }
    }

    /// Closes a traced round's span, after recording everything since
    /// `replicas_from` as its `phase.replicas`.
    pub fn close_round(&mut self, root: SpanId, index: u32, replicas_from: Instant) {
        if let Some(tr) = self.tracer.as_mut() {
            let now = Instant::now();
            tr.real(root, index, "phase.replicas", replicas_from, now);
            tr.close(root, now);
        }
    }
}

/// The end-to-end view of a run, over its kept rounds.
#[derive(Clone, Debug)]
pub struct EndToEnd {
    pub verdicts_per_s: f64,
    pub latency_p50_ms: f64,
    pub latency_p99_ms: f64,
    /// The quantile `latency_p99_ms` actually is (lower when the pooled
    /// sample is too small for a supported p99).
    pub latency_tail_q: f64,
    pub latency_samples: usize,
    pub setup_s: f64,
    pub kept_round_share: f64,
    pub kept_rounds: usize,
    pub filter_applied: bool,
    pub probe_min_ms: f64,
    pub probe_p50_ms: f64,
}

/// Verdicts per second of timed server time, totalled over `rounds`
/// (indices into `all`) and restricted to traced or plain rounds. A total,
/// not a median of per-round rates: rounds legitimately differ (a durable
/// round may or may not contain a snapshot), and the amortised rate is
/// what a user sees.
pub fn rate(all: &[RoundRec], rounds: &[usize], traced: bool) -> f64 {
    let (mut verdicts, mut seconds) = (0.0, 0.0);
    for r in rounds.iter().map(|&i| &all[i]).filter(|r| r.traced == traced) {
        verdicts += f64::from(r.verdicts);
        seconds += r.server_s;
    }
    if seconds > 0.0 {
        verdicts / seconds
    } else {
        0.0
    }
}

/// Set-up time with the host's disturbance taken out: for each part of the
/// set-up, the fastest of its executions over all the run's set-ups,
/// summed. Contention for memory and the shared cache slows this
/// cache-missing work by half for a fraction of a second, or for most of
/// some minutes, and nothing the harness can read says when; it only ever
/// adds time, and the shorter a part, the likelier one of its executions
/// escaped it.
pub fn undisturbed_setup(setups: &[SetupParts]) -> Duration {
    let parts = setups.iter().map(Vec::len).min().unwrap_or(0);
    (0..parts).map(|k| setups.iter().map(|s| s[k]).min().expect("at least one set-up")).sum()
}

/// End-to-end metrics of a run. In a traced run only the plain rounds
/// count towards throughput (the traced ones carry span overhead).
pub fn end_to_end(rec: &Recorder, min_kept: usize) -> EndToEnd {
    let limits = Limits::of(rec.rounds.iter().map(|r| &r.host));
    let readings: Vec<Readings> = rec.rounds.iter().map(|r| r.host).collect();
    let (kept_idx, filter_applied) = probe::kept_rounds(&readings, &limits, min_kept);
    let verdicts_per_s = rate(&rec.rounds, &kept_idx, false);

    let mut lat: Vec<f64> = kept_idx
        .iter()
        .flat_map(|&i| rec.lat_ns[rec.rounds[i].lat.clone()].iter())
        .map(|&ns| ns as f64 / 1e6)
        .collect();
    stats::sort(&mut lat);
    let (p50, (p99, tail_q)) = if lat.is_empty() {
        (0.0, (0.0, 0.0))
    } else {
        (stats::nearest_rank(&lat, 0.5), stats::tail_quantile(&lat, 0.99))
    };

    let setup_s = undisturbed_setup(&rec.setups).as_secs_f64();

    let mut probes: Vec<f64> =
        rec.rounds.iter().flat_map(|r| [r.host.alu.0, r.host.alu.1]).collect();
    stats::sort(&mut probes);
    let quiet = rec.rounds.iter().filter(|r| limits.quiet(&r.host)).count();
    EndToEnd {
        verdicts_per_s,
        latency_p50_ms: p50,
        latency_p99_ms: p99,
        latency_tail_q: tail_q,
        latency_samples: lat.len(),
        setup_s,
        // Also when the filter was abandoned this is the share that would
        // have passed, so such a run is visibly suspect.
        kept_round_share: if rec.rounds.is_empty() {
            0.0
        } else {
            quiet as f64 / rec.rounds.len() as f64
        },
        kept_rounds: kept_idx.len(),
        filter_applied,
        probe_min_ms: probes.first().copied().unwrap_or(0.0),
        probe_p50_ms: if probes.is_empty() { 0.0 } else { stats::nearest_rank(&probes, 0.5) },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host(alu_after: f64) -> Readings {
        Readings { alu: (1.0, alu_after), steal: 0 }
    }

    fn round(alu_after: f64, server_s: f64, lat: Range<usize>, traced: bool) -> RoundRec {
        RoundRec { traced, host: host(alu_after), server_s, verdicts: 100, lat }
    }

    #[test]
    fn only_kept_plain_rounds_feed_throughput_and_latency() {
        let mut rec = Recorder::new(None);
        rec.lat_ns = vec![1_000_000, 2_000_000, 3_000_000, 50_000_000, 4_000_000, 5_000_000];
        rec.rounds = vec![
            round(1.00, 0.010, 0..2, false),
            round(1.01, 0.020, 2..3, false),
            // Disturbed: dropped, along with its 50 ms latency.
            round(1.50, 0.100, 3..4, false),
            round(1.02, 0.030, 4..5, false),
            // Traced: kept for latency, not for throughput.
            round(1.00, 0.500, 5..6, true),
        ];
        let ms = Duration::from_millis;
        rec.setups = vec![vec![ms(10), ms(90)], vec![ms(30), ms(60)], vec![ms(20), ms(200)]];
        let e = end_to_end(&rec, 2);
        assert!(e.filter_applied);
        assert_eq!(e.kept_rounds, 4);
        assert_eq!(e.kept_round_share, 0.8);
        // 300 verdicts in 60 ms of kept plain server time.
        assert_eq!(e.verdicts_per_s, 5000.0);
        assert_eq!(e.latency_samples, 5);
        assert_eq!(e.latency_p50_ms, 3.0);
        // Too few samples for any tail: the median stands in.
        assert_eq!((e.latency_p99_ms, e.latency_tail_q), (3.0, 0.5));
        // Fastest first part (10 ms) + fastest second part (60 ms).
        assert_eq!(e.setup_s, 0.07);
        assert_eq!(e.probe_min_ms, 1.0);
    }

    #[test]
    fn an_abandoned_filter_still_reports_the_share_that_would_pass() {
        let mut rec = Recorder::new(None);
        rec.rounds = vec![round(1.0, 0.01, 0..0, false), round(2.0, 0.03, 0..0, false)];
        let e = end_to_end(&rec, 50);
        assert!(!e.filter_applied);
        assert_eq!(e.kept_rounds, 2);
        assert_eq!(e.kept_round_share, 0.5);
        assert_eq!(e.verdicts_per_s, 5000.0);
    }
}
