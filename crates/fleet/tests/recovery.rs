//! Crash-recovery attack tests: a fleet killed between accepting a proof
//! and draining it must come back without accepting any pre-crash proof.
//! The canonical attack: capture a proof the fleet already accepted,
//! crash the service, and replay the capture after restart, now that the
//! replay window (which lives in memory only) is gone. Fresh boot-epoch
//! nonces make every pre-crash proof fail on the MAC instead.
//!
//! Snapshots are taken at every subset of a few chosen points, so the
//! crash lands with history split between snapshots and live WAL segments
//! in every arrangement those points allow.

use dialed::attest::DialedDevice;
use dialed::pipeline::{BuildOptions, InstrumentedOp};
use dialed::report::{Finding, RejectReason};
use fleet::{CatalogFn, Fleet, FleetConfig, SessionError, SessionId};
use std::path::PathBuf;

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

/// Snapshots every shard if bit `point` of `mask` is set.
fn snapshot_at(fleet: &mut Fleet, mask: u32, point: u32) {
    if mask & (1 << point) != 0 {
        fleet.snapshot().unwrap();
    }
}

#[test]
fn replayed_proof_is_rejected_across_a_crash() {
    // Snapshot points: after registration, after the first drain, and
    // between the second submission and the crash (the snapshot then
    // holds the undrained proof).
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
    // A snapshot after a different device's submission each generation,
    // and after the drain in the middle one, puts snapshot boundaries
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
