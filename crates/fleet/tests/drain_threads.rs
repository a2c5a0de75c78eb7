//! How many threads a verify pass runs on, and that the answer never
//! changes a verdict.
//!
//! [`Fleet::verify_pending`] weights each queued submission by its
//! operation's mode, drains inline below [`PARALLEL_MIN_WORK_NS`], and
//! otherwise spreads whole shards over at most `FleetConfig::workers`
//! threads. [`DrainStats::threads`] reports the choice.

use dialed::attest::{DialedDevice, DialedProof};
use dialed::pipeline::{BuildOptions, InstrumentMode, InstrumentedOp};
use dialed::report::{Finding, RejectClass};
use fleet::{
    DeviceId, DrainStats, Fleet, FleetConfig, OpId, SessionId, SessionState, Shard,
    PARALLEL_MIN_WORK_NS,
};
use vrased::Challenge;

const ADDER: &str = "\
    .org 0xE000\nop:\n mov r15, r10\n add r14, r10\n mov r10, &0x0060\n ret\n";
const STORER: &str = ".org 0xE000\nop:\n mov r14, &0x0060\n ret\n";

fn build(src: &str, mode: InstrumentMode) -> InstrumentedOp {
    InstrumentedOp::build(src, "op", &BuildOptions { mode, ..BuildOptions::default() }).unwrap()
}

fn fleet(workers: Option<usize>) -> Fleet {
    Fleet::new(FleetConfig { workers, shards: 4, ..FleetConfig::default() })
}

/// Queues `rounds` honest submissions from each of `devices` new devices
/// of `op` (one invocation per device, one proof per issued challenge).
fn queue(fleet: &mut Fleet, op_id: OpId, op: &InstrumentedOp, devices: u64, rounds: usize) {
    for seed in 0..devices {
        let id = fleet.register_device(op_id, seed).unwrap();
        let mut dev = DialedDevice::new(op.clone(), fleet.device_keystore(id).unwrap());
        dev.invoke(&[0, 0, 0, 0, 0, 0, 2, 3]);
        for _ in 0..rounds {
            let chal = fleet.issue(id, 0).unwrap();
            fleet.submit(SessionId(chal.session), id, dev.prove(&chal.challenge), 1).unwrap();
        }
    }
}

/// Drains everything queued; every submission must verify.
fn drain(fleet: &mut Fleet, expect: usize) -> (DrainStats, usize) {
    let busy = fleet.shards().iter().map(Shard::pending).filter(|&d| d > 0).count();
    let (stats, _) = fleet.drain(2);
    assert_eq!((stats.drained, stats.verified), (expect, expect), "{stats}");
    (stats, busy)
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

#[test]
fn a_light_pox_pass_drains_inline() {
    // 48 PoX-only submissions (≈ 24 µs of MAC checks) over 4 shards: a
    // spawn would cost more than it saves.
    let op = build(ADDER, InstrumentMode::CfaOnly);
    let mut fleet = fleet(Some(4));
    let op_id = fleet.register_op("pox", op.clone(), vec![]);
    assert_eq!(fleet.op(op_id).unwrap().proof_cost_ns() * 48, 24_000);
    queue(&mut fleet, op_id, &op, 16, 3);
    let (stats, busy) = drain(&mut fleet, 48);
    assert_eq!(busy, 4, "16 devices reach every shard");
    assert_eq!(stats.shards, 4);
    assert_eq!(stats.threads, 1, "{stats}");
}

#[test]
fn a_heavy_pox_pass_uses_one_thread_per_busy_shard_up_to_workers() {
    let op = build(ADDER, InstrumentMode::CfaOnly);
    for workers in [Some(2), Some(8), None] {
        let mut fleet = fleet(workers);
        let op_id = fleet.register_op("pox", op.clone(), vec![]);
        let cost = fleet.op(op_id).unwrap().proof_cost_ns();
        let n = usize::try_from(2 * PARALLEL_MIN_WORK_NS / cost).unwrap();
        queue(&mut fleet, op_id, &op, 16, n / 16);
        let (stats, busy) = drain(&mut fleet, n);
        assert_eq!(busy, 4);
        assert_eq!(stats.threads, workers.unwrap_or_else(cores).min(busy), "{workers:?}: {stats}");
    }
}

#[test]
fn a_full_pass_uses_one_thread_per_busy_shard_up_to_workers() {
    let op = build(ADDER, InstrumentMode::Full);
    for workers in [Some(3), None] {
        let mut fleet = fleet(workers);
        let op_id = fleet.register_op("full", op.clone(), vec![]);
        queue(&mut fleet, op_id, &op, 64, 12);
        let (stats, busy) = drain(&mut fleet, 768);
        assert_eq!(busy, 4);
        assert_eq!(stats.threads, workers.unwrap_or_else(cores).min(busy), "{workers:?}: {stats}");
    }
}

/// What a fleet says about one session after a drain.
#[derive(Debug, PartialEq)]
struct Outcome {
    state: SessionState,
    report: Option<dialed::report::Report>,
    class: Option<RejectClass>,
}

/// One submission: the session it answers and the proof sent.
struct Submission {
    session: SessionId,
    device: DeviceId,
    proof: DialedProof,
}

#[test]
fn verdicts_do_not_depend_on_the_thread_count() {
    // Three operations (two Full, one PoX-only) over 4 shards; every odd
    // device tampers with its proof (OR byte, stale challenge, or tag).
    // One inline fleet and two that drain in parallel must end in
    // identical sessions.
    let ops = [
        ("adder", build(ADDER, InstrumentMode::Full)),
        ("storer", build(STORER, InstrumentMode::Full)),
        ("pox", build(ADDER, InstrumentMode::CfaOnly)),
    ];
    let mut fleets: Vec<Fleet> = [Some(1), None, Some(4)].into_iter().map(fleet).collect();
    for fleet in &mut fleets {
        for (name, op) in &ops {
            fleet.register_op(name, op.clone(), vec![]);
        }
    }

    let mut subs = Vec::new();
    for (i, (_, op)) in ops.iter().enumerate() {
        for seed in 0..16u64 {
            let op_id = OpId(u32::try_from(i).unwrap());
            let ids: Vec<DeviceId> =
                fleets.iter_mut().map(|f| f.register_device(op_id, seed).unwrap()).collect();
            let id = ids[0];
            assert!(ids.iter().all(|&d| d == id));
            let mut dev = DialedDevice::new(op.clone(), fleets[0].device_keystore(id).unwrap());
            dev.invoke(&[0, 0, 0, 0, 0, 0, seed as u16, 3]);
            let chals: Vec<_> = fleets.iter_mut().map(|f| f.issue(id, 0).unwrap()).collect();
            assert!(chals.iter().all(|c| c == &chals[0]));
            let mut proof = dev.prove(&chals[0].challenge);
            match seed % 6 {
                1 => proof.pox.or_data[seed as usize] ^= 0x40,
                3 => proof = dev.prove(&Challenge::derive(b"stale", seed)),
                5 => proof.pox.tag[0] ^= 1,
                _ => {}
            }
            subs.push(Submission { session: SessionId(chals[0].session), device: id, proof });
        }
    }
    for fleet in &mut fleets {
        for s in &subs {
            fleet.submit(s.session, s.device, s.proof.clone(), 1).unwrap();
        }
    }

    let stats: Vec<DrainStats> = fleets.iter_mut().map(|f| f.drain(2).0).collect();
    assert_eq!(stats[0].threads, 1);
    assert_eq!(stats[1].threads, cores().min(4));
    assert_eq!(stats[2].threads, 4);
    assert_eq!((stats[0].verified, stats[0].rejected), (24, 24), "{}", stats[0]);

    let outcome = |fleet: &Fleet, s: &Submission| {
        let session = fleet.session(s.session).unwrap();
        let class = session.report.as_ref().and_then(|r| {
            r.findings.iter().find_map(|f| match f {
                Finding::PoxRejected { reason } => Some(reason.class()),
                _ => None,
            })
        });
        Outcome { state: session.state, report: session.report.clone(), class }
    };
    for s in &subs {
        let want = outcome(&fleets[0], s);
        assert!(want.report.is_some());
        for fleet in &fleets[1..] {
            assert_eq!(outcome(fleet, s), want, "session {:?}", s.session);
        }
    }
    for fleet in &fleets[1..] {
        assert_eq!(fleet.devices().count(), fleets[0].devices().count());
        for (a, b) in fleet.devices().zip(fleets[0].devices()) {
            assert_eq!((a.id, a.verified, a.last_verified), (b.id, b.verified, b.last_verified));
        }
    }
}
