//! The expected-ER digest an op's verifier MACs against is computed when
//! the verifier is built: once at registration, once more when recovery
//! rebuilds the op table, and never on a drain. These rounds pin that
//! honest proofs keep verifying around everything that touches that
//! lifecycle: compactions between drains, a provisioning-epoch rotation,
//! and a crash recovered from a compacted WAL segment.

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
    let dir = tmp_dir("rotation-recovery");
    let op = InstrumentedOp::build(OP_SRC, "op", &BuildOptions::default()).unwrap();

    let mut fleet = Fleet::durable(&dir, config()).unwrap();
    let op_id = fleet.register_op("adder", op.clone(), vec![]);
    let mut devices: Vec<(DeviceId, DialedDevice)> = (0..6u64)
        .map(|seed| {
            let id = fleet.register_device(op_id, seed).unwrap();
            (id, DialedDevice::new(op.clone(), fleet.device_keystore(id).unwrap()))
        })
        .collect();

    round(&mut fleet, &mut devices, 0);
    for r in 1..3u64 {
        fleet.snapshot().unwrap();
        round(&mut fleet, &mut devices, r * 10);
    }

    // Epoch rotation: devices keep verifying (installed keys are
    // untouched by rotation).
    fleet.rotate_provisioning_epoch();
    round(&mut fleet, &mut devices, 100);

    // Crash + recovery from a compacted segment: the rebuilt verifiers accept
    // the same devices' proofs.
    fleet.snapshot().unwrap();
    round(&mut fleet, &mut devices, 150);
    drop(fleet);
    let mut fleet = Fleet::recover(&dir, config(), &catalog()).unwrap();
    let mut devices: Vec<(DeviceId, DialedDevice)> = devices
        .into_iter()
        .map(|(id, _)| (id, DialedDevice::new(op.clone(), fleet.device_keystore(id).unwrap())))
        .collect();
    round(&mut fleet, &mut devices, 200);

    let _ = std::fs::remove_dir_all(&dir);
}
