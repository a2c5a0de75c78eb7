//! `e2e` — the repository's end-to-end benchmark. See `README.md` next to
//! this package's manifest for the workloads, the metrics and how to read
//! the output.
//!
//! ```text
//! e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>   one workload (driver form)
//! e2e run    [--seed n] [--seconds s] [--trace] [--smoke] [--out file]
//! e2e repeat <N> [--seed n] [--seconds s] [--out file]
//! e2e diff   <A.json> <B.json>
//! ```

mod alloc_count;
mod closed;
mod inproc;
mod json;
mod layers;
mod measure;
mod meter;
mod metrics;
mod net_closed;
mod net_paced;
mod population;
mod probe;
mod procfs;
mod seed;
mod span;
mod stats;
mod suite;
mod workload;

use json::Json;
use std::process::ExitCode;
use workload::{Kind, Opts};

/// Length of the measured window unless `--seconds` says otherwise; the
/// same value `BENCHMARK.json` gives as `run_seconds`.
pub const DEFAULT_SECONDS: f64 = 20.0;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  e2e --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]\n  \
         e2e run [--seed n] [--seconds s] [--trace] [--smoke] [--out file]\n  \
         e2e repeat <N> [--seed n] [--seconds s] [--out file]\n  \
         e2e diff <A.json> <B.json>\n\
         workloads: {}",
        Kind::ALL.map(Kind::name).join(", ")
    );
    ExitCode::from(2)
}

/// `--flag value` pairs and bare words of a command line.
pub struct Args {
    pub words: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    /// Flags that stand alone; every other `--flag` takes a value.
    const SWITCHES: [&'static str; 1] = ["--smoke"];

    fn parse(raw: impl Iterator<Item = String>) -> Self {
        let mut args = Args { words: Vec::new(), flags: Vec::new() };
        let mut raw = raw.peekable();
        while let Some(a) = raw.next() {
            if !a.starts_with("--") {
                args.words.push(a);
                continue;
            }
            // `--trace` is a switch for `run` and takes 0|1 in driver form.
            let takes_value = !Self::SWITCHES.contains(&a.as_str())
                && raw.peek().is_some_and(|v| !v.starts_with("--"))
                && !(a == "--trace" && raw.peek().is_some_and(|v| v != "0" && v != "1"));
            let value = if takes_value { raw.next() } else { None };
            args.flags.push((a, value));
        }
        args
    }

    pub fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(f, _)| f == flag)
    }

    pub fn value(&self, flag: &str) -> Option<&str> {
        self.flags.iter().find(|(f, _)| f == flag).and_then(|(_, v)| v.as_deref())
    }

    pub fn number<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.value(flag) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("{flag}: cannot read {v:?}")),
        }
    }

    pub fn trace(&self) -> bool {
        self.has("--trace") && self.value("--trace") != Some("0")
    }
}

/// Runs one workload in this process and prints its result line.
fn run_one(args: &Args) -> Result<ExitCode, String> {
    let name = args.value("--workload").ok_or("--workload needs a name")?;
    let kind = Kind::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seconds: f64 = args.number("--seconds", DEFAULT_SECONDS)?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is out of range"));
    }
    let opts = Opts {
        kind,
        seed: args.number("--seed", 1)?,
        seconds,
        trace: args.trace(),
        smoke: args.has("--smoke"),
    };
    let rec = workload::run(&opts);
    let e = metrics::end_to_end(&rec, &opts);

    if let Some(tracer) = &rec.tracer {
        let dir = population::out_dir();
        let path = dir.join(format!("trace-{}.jsonl", kind.name()));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::File::create(&path))
            .and_then(|f| tracer.write_jsonl(std::io::BufWriter::new(f)));
        match written {
            Ok(()) => {
                eprintln!("e2e: {} spans written to {}", tracer.spans().len(), path.display())
            }
            Err(err) => eprintln!("e2e: cannot write {}: {err}", path.display()),
        }
    }
    for m in &rec.mismatches {
        eprintln!("e2e: wrong outcome: {m}");
    }
    if rec.failed as usize > rec.mismatches.len() {
        eprintln!("e2e: … and {} more", rec.failed as usize - rec.mismatches.len());
    }
    eprintln!(
        "e2e: {} seed {} nproc {}: {} rounds ({} kept{}), {} latency samples (tail = p{:.1}), \
         {} set-up samples, probe min {:.3} ms",
        kind.name(),
        opts.seed,
        suite::nproc(),
        rec.rounds.len(),
        e.kept_rounds,
        if e.filter_applied { "" } else { ", the least disturbed" },
        e.latency_samples,
        e.latency_tail_q * 100.0,
        rec.setups.len(),
        e.probe_min_ms,
    );

    let (defs, values) = if opts.trace {
        (metrics::PER_LAYER, metrics::per_layer_values(&rec, &opts, &e))
    } else {
        (metrics::END_TO_END, metrics::end_to_end_values(&e))
    };
    let correct = rec.failed == 0 && rec.attempted > 0;
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(rec.attempted.max(1) as f64)),
        ("failed", Json::Num(rec.failed as f64)),
        (
            "metrics",
            Json::obj(defs.iter().zip(values).map(|(d, v)| {
                (d.name, Json::obj([("value", Json::Num(v)), ("unit", Json::str(d.unit))]))
            })),
        ),
    ]);
    println!("{}", result.encode());
    Ok(if correct { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn main() -> ExitCode {
    let args = Args::parse(std::env::args().skip(1));
    let outcome = match args.words.first().map(String::as_str) {
        None if args.has("--workload") => run_one(&args),
        Some("run") => suite::run(&args),
        Some("repeat") => suite::repeat(&args),
        Some("diff") => suite::diff(&args),
        _ => return usage(),
    };
    match outcome {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("e2e: {msg}");
            usage()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Args {
        Args::parse(line.split_whitespace().map(String::from))
    }

    #[test]
    fn driver_form_and_suite_form_both_parse() {
        let a = parse("--workload inproc_full --seed 7 --seconds 20 --trace 1");
        assert!(a.words.is_empty());
        assert_eq!(a.value("--workload"), Some("inproc_full"));
        assert_eq!(a.number("--seed", 0u64), Ok(7));
        assert!(a.trace());
        assert!(!parse("--workload x --trace 0").trace());

        let a = parse("run --trace --smoke --seed 3");
        assert_eq!(a.words, ["run"]);
        assert!(a.trace() && a.has("--smoke"));
        assert_eq!(a.number("--seed", 0u64), Ok(3));

        let a = parse("repeat 5 --out x.json");
        assert_eq!(a.words, ["repeat", "5"]);
        assert_eq!(a.value("--out"), Some("x.json"));
        assert!(parse("run --seed nope").number("--seed", 0u64).is_err());
        // A bare word after the `--trace` switch is not swallowed by it.
        assert_eq!(parse("--trace run").words, ["run"]);
    }
}
