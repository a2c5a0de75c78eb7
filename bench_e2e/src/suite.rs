//! The whole suite: `run` (every workload once, each in a fresh child
//! process), `repeat` (the suite N times, with spread per metric) and
//! `diff` (two result files against the bounds of `BENCHMARK.json`).

use crate::json::Json;
use crate::metrics::{self, Better, MetricDef};
use crate::population;
use crate::stats;
use crate::workload::Kind;
use crate::{Args, DEFAULT_SECONDS};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// One workload's result line, as its child process printed it.
struct Outcome {
    correct: bool,
    attempted: f64,
    failed: f64,
    /// `(name, unit, value)` in the order printed.
    metrics: Vec<(String, String, f64)>,
}

/// Runs one workload in a child process and parses the last line it
/// prints. The child inherits stderr, so its notes stay visible.
fn child(kind: Kind, seed: u64, seconds: f64, trace: bool, smoke: bool) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", kind.name(), "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| format!("cannot start {}: {e}", kind.name()))?;
    if !out.status.success() {
        return Err(format!("{} exited with {}", kind.name(), out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().last().ok_or_else(|| format!("{} printed nothing", kind.name()))?;
    let doc = Json::parse(line)?;
    let field = |k: &str| doc.get(k).ok_or_else(|| format!("{}: no {k:?} in result", kind.name()));
    let metrics = field("metrics")?
        .as_obj()
        .ok_or("metrics is not an object")?
        .iter()
        .map(|(name, m)| {
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or("").to_string();
            let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            (name.clone(), unit, value)
        })
        .collect();
    Ok(Outcome {
        correct: field("correct")? == &Json::Bool(true),
        attempted: field("attempted")?.as_f64().unwrap_or(0.0),
        failed: field("failed")?.as_f64().unwrap_or(0.0),
        metrics,
    })
}

struct SuiteOpts {
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
}

impl SuiteOpts {
    fn from(args: &Args) -> Result<Self, String> {
        Ok(Self {
            seed: args.number("--seed", 1)?,
            seconds: args.number("--seconds", DEFAULT_SECONDS)?,
            trace: args.trace(),
            smoke: args.has("--smoke"),
            out: args.value("--out").map(PathBuf::from),
        })
    }
}

/// Values collected per workload × metric over the runs of a suite.
struct Table {
    /// `(workload, metric name, unit, values)` in first-seen order.
    rows: Vec<(String, String, String, Vec<f64>)>,
    attempted: f64,
    failed: f64,
    all_correct: bool,
}

impl Table {
    fn new() -> Self {
        Self { rows: Vec::new(), attempted: 0.0, failed: 0.0, all_correct: true }
    }

    fn add(&mut self, kind: Kind, outcome: Outcome) {
        self.attempted += outcome.attempted;
        self.failed += outcome.failed;
        self.all_correct &= outcome.correct;
        for (name, unit, value) in outcome.metrics {
            match self.rows.iter_mut().find(|r| r.0 == kind.name() && r.1 == name) {
                Some(row) => row.3.push(value),
                None => self.rows.push((kind.name().to_string(), name, unit, vec![value])),
            }
        }
    }

    /// The result file: per workload × metric the median, min, max, spread
    /// `(max − min) ÷ median` and every value. No gain is ever claimed
    /// here, so `claim` is null.
    fn to_json(&self, opts: &SuiteOpts, runs: usize) -> Json {
        let mut workloads: Vec<(String, Json)> = Vec::new();
        for (workload, name, unit, values) in &self.rows {
            let s = Summary::of(values);
            let metric = Json::obj([
                ("unit", Json::str(unit.as_str())),
                ("median", Json::Num(s.median)),
                ("min", Json::Num(s.min)),
                ("max", Json::Num(s.max)),
                ("spread", Json::Num(s.spread)),
                ("iqr", Json::Num(s.iqr)),
                ("values", Json::Arr(values.iter().map(|&v| Json::Num(v)).collect())),
            ]);
            match workloads.iter_mut().find(|(w, _)| w == workload) {
                Some((_, Json::Obj(fields))) => fields.push((name.clone(), metric)),
                _ => workloads.push((workload.clone(), Json::obj([(name.clone(), metric)]))),
            }
        }
        Json::obj([
            ("nproc", Json::Num(nproc() as f64)),
            ("seed", Json::Num(opts.seed as f64)),
            ("seconds", Json::Num(opts.seconds)),
            ("traced", Json::Bool(opts.trace)),
            ("runs", Json::Num(runs as f64)),
            ("attempted", Json::Num(self.attempted)),
            ("failed", Json::Num(self.failed)),
            ("correct", Json::Bool(self.all_correct)),
            ("workloads", Json::Obj(workloads)),
            ("claim", Json::Null),
        ])
    }

    fn print(&self, runs: usize) {
        if runs == 1 {
            println!("{:<16} {:<32} {:>16} unit", "workload", "metric", "value");
            for (w, name, unit, values) in &self.rows {
                println!("{w:<16} {name:<32} {:>16.6} {unit}", values[0]);
            }
        } else {
            // `spread` is (max − min) ÷ median; `iqr` is the distance between
            // the first and third quartile ÷ median, the benchmark driver's
            // measure of the same thing.
            println!(
                "{:<16} {:<32} {:>14} {:>14} {:>14} {:>8} {:>8} unit",
                "workload", "metric", "median", "min", "max", "spread", "iqr"
            );
            for (w, name, unit, values) in &self.rows {
                let s = Summary::of(values);
                println!(
                    "{w:<16} {name:<32} {:>14.6} {:>14.6} {:>14.6} {:>8.4} {:>8.4} {unit}",
                    s.median, s.min, s.max, s.spread, s.iqr
                );
            }
        }
    }
}

struct Summary {
    median: f64,
    min: f64,
    max: f64,
    /// `(max − min) ÷ median`; zero for a constant metric.
    spread: f64,
    /// `(Q3 − Q1) ÷ median`, quartiles as Python's `statistics.quantiles`.
    iqr: f64,
}

impl Summary {
    fn of(values: &[f64]) -> Self {
        let mut v = values.to_vec();
        let median = stats::median(&mut v);
        let (min, max) = (v[0], v[v.len() - 1]);
        let over_median = |d: f64| if median != 0.0 { d / median.abs() } else { 0.0 };
        let iqr = if v.len() >= 2 {
            let q = stats::quartiles_exclusive(&v);
            over_median(q[2] - q[0])
        } else {
            0.0
        };
        Self { median, min, max, spread: over_median(max - min), iqr }
    }
}

fn run_suite(opts: &SuiteOpts, runs: usize) -> Result<Table, String> {
    let mut table = Table::new();
    for run in 0..runs {
        for kind in Kind::ALL {
            let seed = opts.seed + run as u64;
            eprintln!("e2e: run {}/{runs}: {} (seed {seed})", run + 1, kind.name());
            table.add(kind, child(kind, seed, opts.seconds, opts.trace, opts.smoke)?);
        }
    }
    Ok(table)
}

fn finish(table: &Table, opts: &SuiteOpts, runs: usize) -> Result<ExitCode, String> {
    table.print(runs);
    let doc = table.to_json(opts, runs);
    let path = opts.out.clone().unwrap_or_else(|| {
        let kind = if opts.trace { "trace" } else { "e2e" };
        population::out_dir().join(format!("result-{kind}-seed{}-x{runs}.json", opts.seed))
    });
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&path, doc.encode() + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("e2e: results written to {}", path.display());
    println!("{}", doc.encode());
    Ok(if table.all_correct { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// `e2e run`: every workload once.
pub fn run(args: &Args) -> Result<ExitCode, String> {
    let opts = SuiteOpts::from(args)?;
    finish(&run_suite(&opts, 1)?, &opts, 1)
}

/// `e2e repeat N`: the suite N times back to back, seeds counting up.
pub fn repeat(args: &Args) -> Result<ExitCode, String> {
    let runs: usize = args
        .words
        .get(1)
        .and_then(|n| n.parse().ok())
        .filter(|&n| n >= 1)
        .ok_or("repeat needs a count of at least 1")?;
    let opts = SuiteOpts::from(args)?;
    finish(&run_suite(&opts, runs)?, &opts, runs)
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Judgement {
    Better,
    Within,
    Worse,
    Unresolved,
}

impl Judgement {
    fn as_str(self) -> &'static str {
        match self {
            Judgement::Better => "better",
            Judgement::Within => "within",
            Judgement::Worse => "worse",
            Judgement::Unresolved => "unresolved",
        }
    }
}

/// One side of a comparison: a metric's median, its extremes, and its
/// run-to-run spread, the distance between its quartiles ÷ its median.
#[derive(Clone, Copy)]
struct Side {
    median: f64,
    min: f64,
    max: f64,
    iqr: f64,
}

/// How B compares with A for one metric under `bound` (the share of A's
/// median by which B may be worse). When either side's own spread is wider
/// than the bound, the comparison is unresolved unless every run of one
/// side is on the same side of every run of the other.
fn judge(a: Side, b: Side, better: Better, bound: f64) -> Judgement {
    // Fold direction away: after this, lower is better.
    let flip = |s: Side| match better {
        Better::Lower => s,
        Better::Higher => Side { median: -s.median, min: -s.max, max: -s.min, iqr: s.iqr },
    };
    let (a, b) = (flip(a), flip(b));
    let scale = a.median.abs();
    let worse_by = if scale > 0.0 { (b.median - a.median) / scale } else { 0.0 };
    if a.iqr > bound || b.iqr > bound {
        if b.max < a.min {
            return Judgement::Better;
        }
        if b.min > a.max && worse_by > bound {
            return Judgement::Worse;
        }
        return Judgement::Unresolved;
    }
    if worse_by > bound {
        Judgement::Worse
    } else if b.median < a.median && b.max < a.min {
        Judgement::Better
    } else {
        Judgement::Within
    }
}

/// Bounds by end-to-end metric name, from `BENCHMARK.json` in the current
/// directory (the repository root) or next to this package.
fn load_bounds() -> Result<Vec<(String, f64)>, String> {
    let candidates = [
        PathBuf::from("BENCHMARK.json"),
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
    ];
    let text = candidates
        .iter()
        .find_map(|p| std::fs::read_to_string(p).ok())
        .ok_or("BENCHMARK.json not found in the current directory or the repository root")?;
    let doc = Json::parse(&text)?;
    doc.get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str).ok_or("metric without a name")?;
            let bound = m.get("bound").and_then(Json::as_f64).ok_or("metric without a bound")?;
            Ok((name.to_string(), bound))
        })
        .collect()
}

fn side(metric: &Json) -> Option<Side> {
    let f = |k: &str| metric.get(k).and_then(Json::as_f64);
    Some(Side { median: f("median")?, min: f("min")?, max: f("max")?, iqr: f("iqr")? })
}

/// `e2e diff A.json B.json`: one row per workload × end-to-end metric.
/// Exits non-zero on any `worse`, or when B got more outcomes wrong.
pub fn diff(args: &Args) -> Result<ExitCode, String> {
    let [_, a_path, b_path] = args.words.as_slice() else {
        return Err("diff needs two result files".into());
    };
    let load = |p: &String| -> Result<Json, String> {
        Json::parse(&std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?)
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    let bounds = load_bounds()?;
    let mut counts = [0usize; 4];
    println!(
        "{:<16} {:<26} {:>14} {:>14} {:>9} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "change", "bound"
    );
    for kind in Kind::ALL {
        for def in metrics::END_TO_END {
            let MetricDef { name, better, .. } = *def;
            let find = |doc: &Json| {
                doc.get("workloads")
                    .and_then(|w| w.get(kind.name()))
                    .and_then(|w| w.get(name))
                    .and_then(side)
            };
            let (Some(sa), Some(sb)) = (find(&a), find(&b)) else {
                return Err(format!("{} / {name} is missing from a result file", kind.name()));
            };
            let bound = bounds
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, b)| *b)
                .ok_or_else(|| format!("BENCHMARK.json has no bound for {name}"))?;
            let j = judge(sa, sb, better, bound);
            counts[j as usize] += 1;
            let change = if sa.median != 0.0 { (sb.median - sa.median) / sa.median } else { 0.0 };
            println!(
                "{:<16} {name:<26} {:>14.6} {:>14.6} {:>+8.2}% {bound:>6.2}  {}",
                kind.name(),
                sa.median,
                sb.median,
                change * 100.0,
                j.as_str()
            );
        }
    }
    let failed = |doc: &Json| doc.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
    let attempted =
        |doc: &Json| doc.get("attempted").and_then(Json::as_f64).unwrap_or(0.0).max(1.0);
    let (ok_a, ok_b) = (1.0 - failed(&a) / attempted(&a), 1.0 - failed(&b) / attempted(&b));
    println!(
        "ok_share: A {ok_a} B {ok_b}; {} better, {} within, {} worse, {} unresolved",
        counts[Judgement::Better as usize],
        counts[Judgement::Within as usize],
        counts[Judgement::Worse as usize],
        counts[Judgement::Unresolved as usize],
    );
    let bad = counts[Judgement::Worse as usize] > 0 || ok_b < ok_a;
    Ok(if bad { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A side whose quartiles sit halfway between its median and extremes.
    fn s(median: f64, min: f64, max: f64) -> Side {
        Side { median, min, max, iqr: (max - min) / 2.0 / median }
    }

    #[test]
    fn judgement_respects_direction_bound_and_spread() {
        use Judgement::{Better as B, Unresolved as U, Within as W, Worse as X};
        // Lower is better, bound 10 %.
        assert_eq!(judge(s(100., 98., 102.), s(104., 102., 106.), Better::Lower, 0.10), W);
        assert_eq!(judge(s(100., 98., 102.), s(115., 113., 117.), Better::Lower, 0.10), X);
        assert_eq!(judge(s(100., 98., 102.), s(90., 88., 92.), Better::Lower, 0.10), B);
        // Higher is better: the same numbers read the other way round.
        assert_eq!(judge(s(100., 98., 102.), s(115., 113., 117.), Better::Higher, 0.10), B);
        assert_eq!(judge(s(100., 98., 102.), s(85., 83., 87.), Better::Higher, 0.10), X);
        // Spread wider than the bound: unresolved, unless the runs of the
        // two sides do not overlap at all.
        assert_eq!(judge(s(100., 85., 115.), s(104., 95., 120.), Better::Lower, 0.10), U);
        assert_eq!(judge(s(100., 85., 115.), s(70., 60., 80.), Better::Lower, 0.10), B);
        assert_eq!(judge(s(100., 85., 115.), s(140., 130., 160.), Better::Lower, 0.10), X);
        // A constant metric compares as within.
        assert_eq!(judge(s(1., 1., 1.), s(1., 1., 1.), Better::Higher, 0.0), W);
    }

    #[test]
    fn summary_spread_is_range_over_median() {
        let sm = Summary::of(&[10.0, 12.0, 11.0]);
        assert_eq!((sm.median, sm.min, sm.max), (11.0, 10.0, 12.0));
        assert!((sm.spread - 2.0 / 11.0).abs() < 1e-12);
        assert_eq!(Summary::of(&[0.0, 0.0]).spread, 0.0);
    }

    #[test]
    fn result_file_round_trips_and_ends_with_a_null_claim() {
        let mut t = Table::new();
        for v in [1.5, 2.5] {
            t.add(
                Kind::InprocFull,
                Outcome {
                    correct: true,
                    attempted: 10.0,
                    failed: 0.0,
                    metrics: vec![("setup_s".into(), "s".into(), v)],
                },
            );
        }
        let opts = SuiteOpts { seed: 1, seconds: 2.0, trace: false, smoke: false, out: None };
        let text = t.to_json(&opts, 2).encode();
        assert!(text.ends_with("\"claim\": null}"), "{text}");
        let doc = Json::parse(&text).unwrap();
        let m = doc.get("workloads").unwrap().get("inproc_full").unwrap().get("setup_s").unwrap();
        assert_eq!(m.get("median").and_then(Json::as_f64), Some(1.5));
        assert_eq!(m.get("values").and_then(Json::as_arr).map(<[Json]>::len), Some(2));
        assert_eq!(doc.get("attempted").and_then(Json::as_f64), Some(20.0));
        assert!(side(m).is_some());
    }
}
