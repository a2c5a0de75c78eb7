//! Crash-recovery attack test: a fleet killed between accepting a proof
//! and draining it must come back with its anti-replay state intact. The
//! canonical attack this guards against: capture a proof the fleet
//! already accepted, crash the service, and replay the capture after
//! restart hoping the replay window was lost with the process.
//!
//! Snapshots are taken at every subset of a few chosen points, so the
//! crash lands with history split between snapshots and live WAL segments
//! in every arrangement those points allow.

use dialed::attest::DialedDevice;
use dialed::pipeline::{BuildOptions, InstrumentedOp};
use fleet::{CatalogFn, Fleet, FleetConfig, SessionError, SessionId, SessionState};
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

    // The accepted-but-undrained submission survived the crash …
    assert_eq!(fleet.pending(), 1, "accepted submission must survive the crash");
    assert_eq!(fleet.session(pending_sid).unwrap().state, SessionState::Submitted);
    // … and so did the verified history (counters are monotone).
    let rec = fleet.device(dev).unwrap();
    assert_eq!((rec.verified, rec.last_verified), (1, Some(0)));

    // ATTACK 1: replay the round-1 proof (already Verified pre-crash)
    // into a fresh post-restart session. The recovered replay window
    // must kill it at the session layer.
    let chal = fleet.issue(dev, 10).unwrap();
    let err = fleet.submit(SessionId(chal.session), dev, captured_round1, 11).unwrap_err();
    assert_eq!(err, SessionError::ReplayedProof, "round-1 proof tag must still be remembered");

    // ATTACK 2: replay the round-2 proof (accepted but not yet drained
    // at crash time) into the same fresh session.
    let err = fleet.submit(SessionId(chal.session), dev, captured_round2, 12).unwrap_err();
    assert_eq!(err, SessionError::ReplayedProof, "undrained proof tags count too");

    // The recovered fleet finishes the interrupted round normally.
    let (stats, _) = fleet.drain(13);
    assert_eq!((stats.drained, stats.verified), (1, 1));
    let rec = fleet.device(dev).unwrap();
    assert_eq!((rec.verified, rec.last_verified), (2, Some(1)), "counters advance, never regress");
    assert_eq!(fleet.session(pending_sid).unwrap().state, SessionState::Verified);
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
    for generation in 0..3u64 {
        let mut fleet = Fleet::recover(&dir, config(), &catalog()).unwrap();
        if generation == 0 {
            let op_id = fleet.ops().ops().next().unwrap().id;
            for seed in 0..4 {
                device_ids.push(fleet.register_device(op_id, seed).unwrap());
            }
        }
        for &dev in &device_ids {
            let rec = fleet.device(dev).unwrap();
            assert_eq!(rec.verified, generation, "history from prior generations persists");
            assert_eq!(rec.last_verified, generation.checked_sub(1));

            let op = InstrumentedOp::build(OP_SRC, "op", &BuildOptions::default()).unwrap();
            let mut device = DialedDevice::new(op, fleet.device_keystore(dev).unwrap());
            let chal = fleet.issue(dev, generation * 100).unwrap();
            assert_eq!(chal.nonce, generation, "nonces continue across restarts");
            device.invoke(&[0; 8]);
            let proof = device.prove(&chal.challenge);
            fleet.submit(SessionId(chal.session), dev, proof, generation * 100 + 1).unwrap();
            if dev == device_ids[generation as usize] {
                fleet.snapshot().unwrap();
            }
        }
        let (stats, _) = fleet.drain(generation * 100 + 2);
        assert_eq!(stats.verified, device_ids.len());
        if generation == 1 {
            fleet.snapshot().unwrap();
        }
    }

    let fleet = Fleet::recover(&dir, config(), &catalog()).unwrap();
    for &dev in &device_ids {
        let rec = fleet.device(dev).unwrap();
        assert_eq!((rec.verified, rec.last_verified), (3, Some(2)));
    }
}

#[test]
fn torn_verdict_batch_recovers_a_prefix_of_it() {
    // One shard, one operation: a drain writes all its verdicts with one
    // `write`. Cutting that write at every byte offset must recover the
    // first k verdicts of the batch and leave the rest queued — never a
    // mixture — and the recovered fleet must finish the batch durably.
    let config = FleetConfig { workers: Some(1), shards: 1, ..FleetConfig::default() };
    let base = tmp_dir("torn-batch-base");
    let op = InstrumentedOp::build(OP_SRC, "op", &BuildOptions::default()).unwrap();
    let (order, before, after) = {
        let mut fleet = Fleet::durable(&base, config.clone()).unwrap();
        let op_id = fleet.register_op("adder", op.clone(), vec![]);
        for seed in 0..4 {
            let dev = fleet.register_device(op_id, seed).unwrap();
            let mut device = DialedDevice::new(op.clone(), fleet.device_keystore(dev).unwrap());
            let chal = fleet.issue(dev, 0).unwrap();
            device.invoke(&[0; 8]);
            let proof = device.prove(&chal.challenge);
            fleet.submit(SessionId(chal.session), dev, proof, 1).unwrap();
        }
        let segment = base.join("shard-0").join("wal-0.log");
        let before = std::fs::metadata(&segment).unwrap().len() as usize;
        let mut order = Vec::new();
        assert_eq!(fleet.verify_pending(&mut order).verified, 4);
        (order, before, std::fs::read(&segment).unwrap())
    };

    for cut in before..=after.len() {
        let dir = tmp_dir("torn-batch-cut");
        for file in ["meta.log", "shard-0/wal-0.log"] {
            std::fs::create_dir_all(dir.join(file).parent().unwrap()).unwrap();
            std::fs::copy(base.join(file), dir.join(file)).unwrap();
        }
        std::fs::write(dir.join("shard-0").join("wal-0.log"), &after[..cut]).unwrap();

        let mut fleet = Fleet::recover(&dir, config.clone(), &catalog()).unwrap();
        let states: Vec<_> = order.iter().map(|&sid| fleet.session(sid).unwrap().state).collect();
        let k = states.iter().take_while(|&&s| s == SessionState::Verified).count();
        assert!(
            states[k..].iter().all(|&s| s == SessionState::Submitted),
            "cut {cut}: {states:?} is not a prefix of the batch"
        );
        assert_eq!(fleet.pending(), order.len() - k, "cut {cut}");
        if cut == after.len() {
            assert_eq!(k, order.len());
        }

        // The torn bytes are cut away on recovery, so verdicts written
        // after it survive the next restart.
        assert_eq!(fleet.drain(2).0.verified, order.len() - k);
        drop(fleet);
        let fleet = Fleet::recover(&dir, config.clone(), &catalog()).unwrap();
        for &sid in &order {
            assert_eq!(fleet.session(sid).unwrap().state, SessionState::Verified, "cut {cut}");
        }
    }
    let _ = std::fs::remove_dir_all(&base);
    let _ = std::fs::remove_dir_all(tmp_dir("torn-batch-cut"));
}
