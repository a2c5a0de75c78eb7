//! A fleet's verification workspaces stay warm from one drain to the next.
//!
//! Each operation's batch engine pools the workspaces its callers hand
//! back and keeps every one of them, so a drain that runs on as many
//! threads as the one before it builds no workspace: its abstract
//! executions stitch no superblock anew, and the process-wide miss count
//! does not move.
//!
//! This file holds one test on purpose: the counters are process-wide, and
//! a second test running beside it would move them.

use apps::Scenario;
use dialed::attest::DialedDevice;
use dialed::pipeline::InstrumentMode;
use fleet::{DeviceId, Fleet, FleetConfig, SessionId};
use msp430::process_superblock_stats;

/// Issues one challenge to every device and submits the proof of one
/// nominal run.
fn submit_round(fleet: &mut Fleet, devices: &mut [(DeviceId, DialedDevice)], app: &Scenario) {
    for (id, dev) in devices {
        let chal = fleet.issue(*id, 0).unwrap();
        (app.feed)(dev.platform_mut());
        dev.invoke(&app.args);
        fleet.submit(SessionId(chal.session), *id, dev.prove(&chal.challenge), 1).unwrap();
    }
}

#[test]
fn a_second_identical_drain_stitches_no_superblock() {
    let scenario = apps::scenarios().remove(0);
    let op = scenario.build(InstrumentMode::Full);
    let mut fleet = Fleet::new(FleetConfig { shards: 4, ..FleetConfig::default() });
    let op_id = fleet.register_op(scenario.name, op.clone(), (scenario.policies)());
    let mut devices: Vec<(DeviceId, DialedDevice)> = (0..64)
        .map(|seed| {
            let id = fleet.register_device(op_id, seed).unwrap();
            (id, DialedDevice::new(op.clone(), fleet.device_keystore(id).unwrap()))
        })
        .collect();

    let mut drains = Vec::new();
    for round in 0..2 {
        submit_round(&mut fleet, &mut devices, &scenario);
        assert!(fleet.ingest_depths().iter().all(|&d| d > 0), "every shard is busy");
        let before = process_superblock_stats();
        let (stats, _) = fleet.drain(2);
        let after = process_superblock_stats();
        assert_eq!(stats.verified, devices.len(), "round {round}: {stats}");
        drains.push((stats.threads, after.hits - before.hits, after.misses - before.misses));
    }
    let [(threads, _, first_misses), (again, hits, misses)] = drains[..] else { unreachable!() };
    assert_eq!(threads, again, "identical passes choose the same thread count");
    assert!(first_misses > 0, "the first drain builds its workspaces");
    assert!(hits > 0, "the second drain runs on stitched blocks");
    assert_eq!(misses, 0, "the second drain found every workspace warm");
}
