//! Crash-recovery attack tests: a fleet killed between accepting a proof
//! and draining it must come back without accepting any pre-crash proof.
//! The canonical attack: capture a proof the fleet already accepted,
//! crash the service, and replay the capture after restart, now that the
//! replay window (which lives in memory only) is gone. Fresh boot-epoch
//! nonces make every pre-crash proof fail on the MAC instead.
//!
//! Compactions are forced at every subset of a few chosen points, so the
//! crash lands with history split between compacted state and appended
//! records in every arrangement those points allow. A crash inside a
//! compaction, before its rename or before its sweep of the older segment,
//! recovers the pre-crash state exactly.

use dialed::attest::DialedDevice;
use dialed::pipeline::{BuildOptions, InstrumentedOp};
use dialed::report::{Finding, RejectReason};
use fleet::{CatalogFn, DeviceId, Fleet, FleetConfig, SessionError, SessionId};
use std::path::{Path, PathBuf};

const OP_SRC: &str = "\
    .org 0xE000\nop:\n mov r15, r10\n add r14, r10\n mov r10, &0x0060\n ret\n";

fn tmp_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("dialed-recovery-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config() -> FleetConfig {
    FleetConfig { workers: Some(1), shards: 3, ..FleetConfig::default() }
}

fn catalog() -> impl fleet::OpCatalog {
    CatalogFn(|name: &str| {
        (name == "adder").then(|| {
            (InstrumentedOp::build(OP_SRC, "op", &BuildOptions::default()).unwrap(), vec![])
        })
    })
}

/// Compacts every shard if bit `point` of `mask` is set.
fn snapshot_at(fleet: &mut Fleet, mask: u32, point: u32) {
    if mask & (1 << point) != 0 {
        fleet.snapshot().unwrap();
    }
}

#[test]
fn replayed_proof_is_rejected_across_a_crash() {
    // Compaction points: after registration, after the first drain, and
    // between the second submission and the crash (the compacted segment
    // then leaves out the undrained proof).
    for mask in 0..8 {
        replay_across_crash(mask);
    }
}

fn replay_across_crash(mask: u32) {
    let dir = tmp_dir(&format!("replay-across-crash-{mask}"));

    // Phase 1: an honest round completes, then a second submission is
    // accepted — and the fleet "crashes" (is dropped) before draining it.
    let (dev, captured_round1, captured_round2, pending_sid) = {
        let mut fleet = Fleet::durable(&dir, config()).unwrap();
        let op = InstrumentedOp::build(OP_SRC, "op", &BuildOptions::default()).unwrap();
        let op_id = fleet.register_op("adder", op.clone(), vec![]);
        let dev = fleet.register_device(op_id, 0xC0FFEE).unwrap();
        let mut device = DialedDevice::new(op, fleet.device_keystore(dev).unwrap());
        snapshot_at(&mut fleet, mask, 0);

        let chal1 = fleet.issue(dev, 0).unwrap();
        device.invoke(&[0, 0, 0, 0, 0, 0, 2, 3]);
        let proof1 = device.prove(&chal1.challenge);
        fleet.submit(SessionId(chal1.session), dev, proof1.clone(), 1).unwrap();
        let (stats, _) = fleet.drain(2);
        assert_eq!(stats.verified, 1);
        assert_eq!(fleet.device(dev).unwrap().last_verified, Some(0));
        snapshot_at(&mut fleet, mask, 1);

        let chal2 = fleet.issue(dev, 3).unwrap();
        let proof2 = device.prove(&chal2.challenge);
        fleet.submit(SessionId(chal2.session), dev, proof2.clone(), 4).unwrap();
        assert_eq!(fleet.pending(), 1);
        snapshot_at(&mut fleet, mask, 2);
        // Crash: no drain, no graceful shutdown, just drop.
        (dev, proof1, proof2, SessionId(chal2.session))
    };

    // Phase 2: recover from disk.
    let mut fleet = Fleet::recover(&dir, config(), &catalog()).unwrap();

    // The undrained submission was forgotten with its session …
    assert_eq!(fleet.pending(), 0, "a restart forgets undrained submissions");
    assert!(fleet.session(pending_sid).is_none());
    // … while the verified history survived (counters are monotone).
    let rec = fleet.device(dev).unwrap();
    assert_eq!((rec.verified, rec.last_verified), (1, Some(0)));

    // A late answer to the forgotten session is refused outright.
    let err = fleet.submit(pending_sid, dev, captured_round2.clone(), 10).unwrap_err();
    assert_eq!(err, SessionError::UnknownSession(pending_sid));

    // ATTACK 1 and 2: replay the round-1 proof (Verified pre-crash) and
    // the round-2 proof (accepted, never drained) into fresh sessions.
    // Nothing remembers their tags any more, but the fresh challenges do
    // not match them: both die on the MAC.
    let mut attacks = Vec::new();
    for captured in [captured_round1, captured_round2] {
        let chal = fleet.issue(dev, 10).unwrap();
        fleet.submit(SessionId(chal.session), dev, captured, 11).unwrap();
        attacks.push(SessionId(chal.session));
    }
    let (stats, _) = fleet.drain(12);
    assert_eq!((stats.verified, stats.rejected), (0, 2));
    for sid in attacks {
        let report = fleet.session(sid).unwrap().report.clone().unwrap();
        let mac = Finding::PoxRejected { reason: RejectReason::MacMismatch };
        assert_eq!(report.findings.first(), Some(&mac), "{sid}");
    }

    // The device re-attests under a fresh challenge, and that verifies.
    let op = InstrumentedOp::build(OP_SRC, "op", &BuildOptions::default()).unwrap();
    let mut device = DialedDevice::new(op, fleet.device_keystore(dev).unwrap());
    device.invoke(&[0, 0, 0, 0, 0, 0, 2, 3]);
    let chal = fleet.issue(dev, 13).unwrap();
    let proof = device.prove(&chal.challenge);
    fleet.submit(SessionId(chal.session), dev, proof, 14).unwrap();
    assert_eq!(fleet.drain(15).0.verified, 1);
    let rec = fleet.device(dev).unwrap();
    assert_eq!((rec.verified, rec.rejected), (2, 2));
    assert_eq!(rec.last_verified, Some(chal.nonce), "counters advance, never regress");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn counters_stay_monotone_across_repeated_restarts() {
    let dir = tmp_dir("monotone-restarts");
    {
        let mut fleet = Fleet::durable(&dir, config()).unwrap();
        let op = InstrumentedOp::build(OP_SRC, "op", &BuildOptions::default()).unwrap();
        fleet.register_op("adder", op, vec![]);
    }

    // Each generation: recover, run one honest round per device, crash.
    // A compaction after a different device's submission each generation,
    // and after the drain in the middle one, puts compaction boundaries
    // inside rounds as well as between restarts.
    let mut device_ids = Vec::new();
    let mut verified_nonce = std::collections::HashMap::new();
    let mut highest_before = None;
    for generation in 0..3u64 {
        let mut fleet = Fleet::recover(&dir, config(), &catalog()).unwrap();
        if generation == 0 {
            let op_id = fleet.ops().ops().next().unwrap().id;
            for seed in 0..4 {
                device_ids.push(fleet.register_device(op_id, seed).unwrap());
            }
        }
        let mut highest = highest_before;
        for &dev in &device_ids {
            let rec = fleet.device(dev).unwrap();
            assert_eq!(rec.verified, generation, "history from prior generations persists");
            assert_eq!(rec.last_verified, verified_nonce.get(&dev).copied());

            let op = InstrumentedOp::build(OP_SRC, "op", &BuildOptions::default()).unwrap();
            let mut device = DialedDevice::new(op, fleet.device_keystore(dev).unwrap());
            let chal = fleet.issue(dev, generation * 100).unwrap();
            if let Some(n) = highest_before {
                assert!(chal.nonce > n, "nonce {} after a restart must exceed {n}", chal.nonce);
            }
            highest = highest.max(Some(chal.nonce));
            verified_nonce.insert(dev, chal.nonce);
            device.invoke(&[0; 8]);
            let proof = device.prove(&chal.challenge);
            fleet.submit(SessionId(chal.session), dev, proof, generation * 100 + 1).unwrap();
            if dev == device_ids[generation as usize] {
                fleet.snapshot().unwrap();
            }
        }
        highest_before = highest;
        let (stats, _) = fleet.drain(generation * 100 + 2);
        assert_eq!(stats.verified, device_ids.len());
        if generation == 1 {
            fleet.snapshot().unwrap();
        }
    }

    let fleet = Fleet::recover(&dir, config(), &catalog()).unwrap();
    for &dev in &device_ids {
        let rec = fleet.device(dev).unwrap();
        assert_eq!((rec.verified, rec.last_verified), (3, verified_nonce.get(&dev).copied()));
    }
}

/// Submits `device`'s proof for a fresh challenge at `now`, its MAC
/// broken if `forge`, and returns the session.
fn attest(fleet: &mut Fleet, device: DeviceId, now: u64, forge: bool) -> SessionId {
    let op = InstrumentedOp::build(OP_SRC, "op", &BuildOptions::default()).unwrap();
    let mut sim = DialedDevice::new(op, fleet.device_keystore(device).unwrap());
    sim.invoke(&[0; 8]);
    let chal = fleet.issue(device, now).unwrap();
    let mut proof = sim.prove(&chal.challenge);
    proof.pox.tag[0] ^= u8::from(forge);
    fleet.submit(SessionId(chal.session), device, proof, now + 1).unwrap();
    SessionId(chal.session)
}

/// A durable fleet with history: two rounds over four devices, the
/// second with one forged proof, the first round pruned, and one forced
/// compaction between them, so every shard's live segment is `wal-1.log`.
/// Returns the fleet and every session it issued.
fn compacted_history(dir: &Path) -> (Fleet, Vec<SessionId>) {
    let mut fleet = Fleet::durable(dir, config()).unwrap();
    let op = InstrumentedOp::build(OP_SRC, "op", &BuildOptions::default()).unwrap();
    let op_id = fleet.register_op("adder", op, vec![]);
    let devs: Vec<_> = (0..4).map(|seed| fleet.register_device(op_id, seed).unwrap()).collect();
    let mut sids = Vec::new();
    for (round, now) in [0u64, 100].into_iter().enumerate() {
        for (i, &dev) in devs.iter().enumerate() {
            sids.push(attest(&mut fleet, dev, now, round == 1 && i == 2));
        }
        fleet.drain(now + 2);
        if round == 0 {
            fleet.snapshot().unwrap();
        }
    }
    assert_eq!(fleet.prune_resolved(100), 4);
    (fleet, sids)
}

/// Every device's counters and every retained session's state and report.
fn durable_state(fleet: &Fleet, sids: &[SessionId]) -> String {
    let devices: Vec<_> =
        fleet.devices().map(|d| (d.id, d.verified, d.rejected, d.last_verified)).collect();
    let sessions: Vec<_> =
        sids.iter().map(|&sid| fleet.session(sid).map(|s| (s.state, s.report.clone()))).collect();
    format!("{devices:?} {sessions:?}")
}

/// The `shard-<i>` directories of `dir`.
fn shard_dirs(dir: &Path) -> Vec<PathBuf> {
    (0..config().shards).map(|i| dir.join(format!("shard-{i}"))).collect()
}

#[test]
fn a_crash_inside_a_compaction_recovers_the_state_exactly() {
    // Crash before the rename: a half-written `wal-2.log.tmp` beside the
    // live segment is ignored, and the next compaction sweeps it.
    let dir = tmp_dir("crash-before-rename");
    let (fleet, sids) = compacted_history(&dir);
    let before = durable_state(&fleet, &sids);
    drop(fleet);
    for shard in shard_dirs(&dir) {
        let live = std::fs::read(shard.join("wal-1.log")).unwrap();
        std::fs::write(shard.join("wal-2.log.tmp"), &live[..live.len() / 2]).unwrap();
    }
    let mut fleet = Fleet::recover(&dir, config(), &catalog()).unwrap();
    assert_eq!(durable_state(&fleet, &sids), before);
    fleet.snapshot().unwrap();
    for shard in shard_dirs(&dir) {
        let names: Vec<_> = std::fs::read_dir(&shard)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert_eq!(names, ["wal-2.log"], "{}", shard.display());
    }
    drop(fleet);
    let _ = std::fs::remove_dir_all(&dir);

    // Crash before the sweep: the complete `wal-2.log` beside the
    // `wal-1.log` it supersedes (here kept past one more verdict, which
    // only the new segment holds). Recovery replays the newest only, so
    // no verdict is lost or counted twice.
    let dir = tmp_dir("crash-before-sweep");
    let (mut fleet, mut sids) = compacted_history(&dir);
    let old: Vec<_> =
        shard_dirs(&dir).iter().map(|s| std::fs::read(s.join("wal-1.log")).unwrap()).collect();
    fleet.snapshot().unwrap();
    sids.push(attest(&mut fleet, DeviceId(0), 200, false));
    fleet.drain(202);
    let before = durable_state(&fleet, &sids);
    drop(fleet);
    for (shard, old) in shard_dirs(&dir).iter().zip(old) {
        assert!(shard.join("wal-2.log").exists());
        std::fs::write(shard.join("wal-1.log"), old).unwrap();
    }
    let fleet = Fleet::recover(&dir, config(), &catalog()).unwrap();
    assert_eq!(durable_state(&fleet, &sids), before);
    let mut counts: Vec<_> = fleet.devices().map(|d| (d.id.0, d.verified, d.rejected)).collect();
    counts.sort_unstable();
    assert_eq!(counts, [(0, 3, 0), (1, 2, 0), (2, 1, 1), (3, 2, 0)]);
    drop(fleet);
    let _ = std::fs::remove_dir_all(&dir);
}
