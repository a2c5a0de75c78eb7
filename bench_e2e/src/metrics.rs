//! The metric set: names, units and directions, and how a finished run's
//! records become their values. `BENCHMARK.json` lists the same names; a
//! test holds the two together.

use crate::closed::acc;
use crate::layers::acc as lacc;
use crate::measure::{self, EndToEnd, Recorder};
use crate::probe::MIN_KEPT;
use crate::procfs;
use crate::span;
use crate::workload::{Kind, Opts};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Higher,
    Lower,
}

#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn def(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// What a user of the system sees. Reported by an untraced run.
pub const END_TO_END: &[MetricDef] = &[
    def("verdicts_per_s", "1/s", Higher),
    def("verdict_latency_p50_ms", "ms", Lower),
    def("setup_s", "s", Lower),
    def("peak_rss_mb", "MiB", Lower),
];

/// One layer each. Reported by a traced run; a layer that is not on a
/// workload's path reads 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    def("ok_share", "share", Higher),
    def("verdict_latency_p99_ms", "ms", Lower),
    def("round.server_us_per_verdict", "us", Lower),
    def("session.issue_us", "us", Lower),
    def("session.submit_us", "us", Lower),
    def("session.prune_us", "us", Lower),
    def("wire.decode_us", "us", Lower),
    def("wire.encode_us", "us", Lower),
    def("wire.bytes_per_proof", "B", Lower),
    def("ingest.drain_us", "us", Lower),
    def("ingest.drain_round_share", "share", Lower),
    def("ingest.verdicts_per_drain", "count", Higher),
    def("dialed.verify_us", "us", Lower),
    def("apex.pox_verify_us", "us", Lower),
    def("vrased.mac_check_us", "us", Lower),
    def("hacl.hmac_mb_per_s", "MB/s", Higher),
    def("msp430.steps_per_s", "1/s", Higher),
    def("msp430.steps_per_verdict", "count", Lower),
    def("msp430.superblock_hit_share", "share", Higher),
    def("store.commit_us_per_verdict", "us", Lower),
    def("store.wal_bytes_per_verdict", "B", Lower),
    def("store.recover_s", "s", Lower),
    def("store.recover_events_per_s", "1/s", Higher),
    def("registry.register_us", "us", Lower),
    def("shard.imbalance", "ratio", Lower),
    def("net.rtt_us", "us", Lower),
    def("net.overhead_us_per_verdict", "us", Lower),
    def("net.overhead_round_share", "share", Lower),
    def("net.frames_per_verdict", "count", Lower),
    def("net.shed_share", "share", Lower),
    def("net.protocol_errors", "count", Lower),
    def("net.reject_us", "us", Lower),
    def("loadgen.prove_us", "us", Lower),
    def("loadgen.lateness_p99_ms", "ms", Lower),
    def("proc.cpu_us_per_verdict", "us", Lower),
    def("proc.allocs_per_verdict", "count", Lower),
    def("host.probe_min_ms", "ms", Lower),
    def("host.probe_p50_ms", "ms", Lower),
    def("host.kept_round_share", "share", Higher),
    def("trace.overhead_share", "share", Lower),
    def("trace.residual_share", "share", Lower),
];

/// Filter threshold of a run: smoke runs are too short to filter.
fn min_kept(opts: &Opts) -> usize {
    if opts.smoke {
        usize::MAX
    } else {
        MIN_KEPT
    }
}

pub fn end_to_end(rec: &Recorder, opts: &Opts) -> EndToEnd {
    measure::end_to_end(rec, min_kept(opts))
}

/// Values of the end-to-end metrics, in [`END_TO_END`] order.
pub fn end_to_end_values(e: &EndToEnd) -> Vec<f64> {
    vec![e.verdicts_per_s, e.latency_p50_ms, e.setup_s, procfs::peak_rss_mib()]
}

/// Values of the per-layer metrics, in [`PER_LAYER`] order.
pub fn per_layer_values(rec: &Recorder, opts: &Opts, e: &EndToEnd) -> Vec<f64> {
    let us = |name: &str| rec.mean(name) * 1e6;
    let value = |name: &str| rec.values.get(name).copied().unwrap_or(0.0);
    let networked = matches!(opts.kind, Kind::NetPoxClosed | Kind::NetFullPaced);

    // Traced and plain rounds alternate, so whatever the host does hits
    // both alike: the comparison is over every round, not only kept ones.
    let every: Vec<usize> = (0..rec.rounds.len()).collect();
    let plain = measure::rate(&rec.rounds, &every, false);
    let traced = measure::rate(&rec.rounds, &every, true);
    let overhead = if plain > 0.0 && traced > 0.0 { 1.0 - traced / plain } else { 0.0 };

    let residual = rec.tracer.as_ref().map_or(0.0, |t| {
        span::totals_by_name(t.spans())
            .get("round")
            .filter(|r| r.total_ns > 0)
            .map_or(0.0, |r| r.self_ns as f64 / r.total_ns as f64)
    });

    // `submit_wire` decodes the frame and then runs the session layer; the
    // replica decode of the same frames is the first part.
    let submit_us = (us(acc::SUBMIT_WIRE) - us(lacc::DECODE)).max(0.0);
    let server_us = us(acc::SERVER);
    let share = |part: f64| if server_us > 0.0 { part / server_us } else { 0.0 };
    let sb = msp430::process_superblock_stats();
    let sb_total = sb.hits + sb.misses + sb.restitches;
    let ok_share = if rec.attempted > 0 {
        (rec.attempted - rec.failed) as f64 / rec.attempted as f64
    } else {
        0.0
    };
    let per_second = |name: &str| {
        let a = rec.layers.get(name).copied().unwrap_or_default();
        if a.sum > 0.0 {
            a.n / a.sum
        } else {
            0.0
        }
    };
    let recover_s = rec.mean(acc::RECOVER);

    vec![
        ok_share,
        e.latency_p99_ms,
        server_us,
        us(acc::ISSUE),
        submit_us,
        us(acc::PRUNE),
        us(lacc::DECODE),
        us(lacc::ENCODE),
        rec.mean(lacc::FRAME_BYTES),
        us(acc::DRAIN),
        if networked { 0.0 } else { share(us(acc::DRAIN)) },
        if networked { rec.mean(acc::NET_VERDICTS_PER_DRAIN) } else { rec.mean(acc::DRAINS) },
        us(lacc::DIALED_VERIFY),
        us(lacc::POX_VERIFY),
        us(lacc::MAC_CHECK),
        per_second(lacc::HMAC) / 1e6,
        per_second(lacc::EMULATE),
        rec.mean(acc::STEPS),
        if sb_total > 0 { sb.hits as f64 / sb_total as f64 } else { 0.0 },
        us(acc::COMMIT),
        rec.mean(acc::WAL_BYTES),
        recover_s,
        if recover_s > 0.0 { rec.mean(acc::RECOVER_EVENTS) / recover_s } else { 0.0 },
        us(acc::REGISTER),
        value(acc::SHARD_IMBALANCE),
        us(acc::NET_RTT),
        us(acc::NET_OVERHEAD),
        share(us(acc::NET_OVERHEAD)),
        rec.mean(acc::NET_FRAMES_IN),
        rec.mean(acc::NET_SHED),
        value(acc::NET_PROTOCOL_ERRORS),
        us(acc::NET_REJECT),
        us(acc::PROVE),
        value(acc::LATENESS_P99_MS),
        us(acc::CPU),
        rec.mean(acc::ALLOCS),
        e.probe_min_ms,
        e.probe_p50_ms,
        e.kept_round_share,
        overhead,
        residual,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
            && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
    }

    #[test]
    fn every_name_and_unit_is_well_formed_and_used_once() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(
                m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric()
                            || matches!(c, '_' | '/' | '%' | '.' | '-')),
                "{}: unit {}",
                m.name,
                m.unit
            );
            assert!(seen.insert(m.name), "{} is defined twice", m.name);
        }
        for k in Kind::ALL {
            assert!(valid_name(k.name()));
        }
    }

    #[test]
    fn value_vectors_line_up_with_the_definitions() {
        let rec = Recorder::new(None);
        let opts = Opts { kind: Kind::InprocFull, seed: 0, seconds: 1.0, trace: true, smoke: true };
        let e = end_to_end(&rec, &opts);
        assert_eq!(end_to_end_values(&e).len(), END_TO_END.len());
        assert_eq!(per_layer_values(&rec, &opts, &e).len(), PER_LAYER.len());
    }

    /// `BENCHMARK.json` at the repository root must name exactly the
    /// workloads and metrics this binary reports.
    #[test]
    fn benchmark_json_agrees_with_the_binary() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap_or_else(|| panic!("{key} is an array"))
                .iter()
                .map(|m| m.get("name").and_then(Json::as_str).expect("name").to_string())
                .collect()
        };
        let ours = |defs: &[MetricDef]| defs.iter().map(|m| m.name.to_string()).collect::<Vec<_>>();
        assert_eq!(names("end_to_end"), ours(END_TO_END));
        assert_eq!(names("per_layer"), ours(PER_LAYER));
        let kinds: Vec<String> = Kind::ALL.iter().map(|k| k.name().to_string()).collect();
        assert_eq!(names("workloads"), kinds);
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            for (m, d) in doc.get(key).and_then(Json::as_arr).unwrap().iter().zip(defs) {
                assert_eq!(m.get("unit").and_then(Json::as_str), Some(d.unit), "{}", d.name);
                let better = match m.get("better").and_then(Json::as_str) {
                    Some("higher") => Higher,
                    Some("lower") => Lower,
                    other => panic!("{}: better is {other:?}", d.name),
                };
                assert_eq!(better, d.better, "{}", d.name);
            }
        }
    }
}
