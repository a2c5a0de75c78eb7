//! Fleet-level expected-ER digest memoization: across any number of batch
//! drains the digest of an op's executable region is computed exactly once
//! per invalidation cycle — registration, provisioning-epoch rotation, and
//! WAL recovery each start one fresh cycle, and every subsequent drain is
//! served from the memo.

use dialed::attest::DialedDevice;
use dialed::pipeline::{BuildOptions, InstrumentedOp};
use fleet::{CatalogFn, DeviceId, Fleet, FleetConfig, SessionId};
use std::path::PathBuf;

const OP_SRC: &str = "\
    .org 0xE000\nop:\n mov r15, r10\n add r14, r10\n mov r10, &0x0060\n ret\n";

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("dialed-digest-cache-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config() -> FleetConfig {
    FleetConfig { workers: Some(1), shards: 2, ..FleetConfig::default() }
}

fn catalog() -> impl fleet::OpCatalog {
    CatalogFn(|name: &str| {
        (name == "adder").then(|| {
            (InstrumentedOp::build(OP_SRC, "op", &BuildOptions::default()).unwrap(), vec![])
        })
    })
}

/// One full round: every device proves the current challenge, the fleet
/// drains, and every session must verify.
fn round(fleet: &mut Fleet, devices: &mut [(DeviceId, DialedDevice)], now: u64) {
    for (id, device) in devices.iter_mut() {
        let chal = fleet.issue(*id, now).unwrap();
        device.invoke(&[0, 0, 0, 0, 0, 0, 2, 3]);
        let proof = device.prove(&chal.challenge);
        fleet.submit(SessionId(chal.session), *id, proof, now + 1).unwrap();
    }
    let (stats, _) = fleet.drain(now + 2);
    assert_eq!(stats.verified, devices.len(), "all honest proofs verify");
}

#[test]
fn er_digest_is_computed_once_per_invalidation_cycle() {
    let dir = tmp_dir("once-per-cycle");
    let op = InstrumentedOp::build(OP_SRC, "op", &BuildOptions::default()).unwrap();

    let mut fleet = Fleet::durable(&dir, config()).unwrap();
    let op_id = fleet.register_op("adder", op.clone(), vec![]);
    let mut devices: Vec<(DeviceId, DialedDevice)> = (0..6u64)
        .map(|seed| {
            let id = fleet.register_device(op_id, seed).unwrap();
            (id, DialedDevice::new(op.clone(), fleet.device_keystore(id).unwrap()))
        })
        .collect();

    // Cycle 1 (registration): however many shard batches the first drain
    // runs, the digest is computed exactly once.
    round(&mut fleet, &mut devices, 0);
    let after_first = fleet.digest_cache_stats();
    assert_eq!(after_first.misses, 1, "first drain computes the digest once: {after_first:?}");
    assert!(after_first.accesses() >= 1);

    // Further drains never recompute: misses stay pinned at 1 while the
    // hit counter absorbs every new batch.
    for r in 1..3u64 {
        // Snapshots between drains do not touch the memo.
        fleet.snapshot().unwrap();
        round(&mut fleet, &mut devices, r * 10);
        let stats = fleet.digest_cache_stats();
        assert_eq!(stats.misses, 1, "drain {r} must be served from the memo: {stats:?}");
        assert!(stats.accesses() > after_first.accesses(), "each drain touches the cache");
    }
    let warm = fleet.digest_cache_stats();
    assert_eq!(warm.hits, warm.accesses() - 1, "every access after the first is a hit");

    // Cycle 2 (epoch rotation): invalidation costs exactly one further
    // miss on the next drain, and devices keep verifying (installed keys
    // are untouched by rotation).
    fleet.rotate_provisioning_epoch();
    round(&mut fleet, &mut devices, 100);
    let rotated = fleet.digest_cache_stats();
    assert_eq!(rotated.misses, 2, "rotation invalidates the memo once: {rotated:?}");

    // Cycle 3 (crash + recovery from snapshot + WAL): the rebuilt engines
    // start cold — fresh counters — and the first post-recovery drain
    // computes the digest exactly once again.
    fleet.snapshot().unwrap();
    round(&mut fleet, &mut devices, 150);
    drop(fleet);
    let mut fleet = Fleet::recover(&dir, config(), &catalog()).unwrap();
    let cold = fleet.digest_cache_stats();
    assert_eq!((cold.hits, cold.misses), (0, 0), "recovered caches start cold");
    let mut devices: Vec<(DeviceId, DialedDevice)> = devices
        .into_iter()
        .map(|(id, _)| (id, DialedDevice::new(op.clone(), fleet.device_keystore(id).unwrap())))
        .collect();
    round(&mut fleet, &mut devices, 200);
    let recovered = fleet.digest_cache_stats();
    assert_eq!(recovered.misses, 1, "post-recovery drain recomputes once: {recovered:?}");
    assert_eq!(recovered.hits, recovered.accesses() - 1);

    let _ = std::fs::remove_dir_all(&dir);
}
