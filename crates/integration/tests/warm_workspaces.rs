//! A fleet's verification workspaces stay warm from one drain to the next.
//!
//! Each shard keeps one workspace per operation it has drained, and a
//! shard drains on one thread at a time, so once a shard has verified a
//! proof of an operation, later drains of that shard build no workspace —
//! however many threads they run on. Their abstract executions stitch no
//! superblock anew, and the process-wide miss count does not move.
//!
//! This file holds one test on purpose: the counters are process-wide, and
//! a second test running beside it would move them.

use apps::Scenario;
use dialed::attest::DialedDevice;
use dialed::pipeline::InstrumentMode;
use fleet::{DeviceId, DrainStats, Fleet, FleetConfig, SessionId, Shard};
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

/// Drains everything queued, returning the pass's stats and how many
/// superblocks it stitched (process-wide misses).
fn drain_counting_misses(fleet: &mut Fleet, expect: usize) -> (DrainStats, u64) {
    let before = process_superblock_stats();
    let (stats, _) = fleet.drain(2);
    let after = process_superblock_stats();
    assert_eq!(stats.verified, expect, "{stats}");
    assert!(after.hits > before.hits, "the pass runs on stitched blocks");
    (stats, after.misses - before.misses)
}

#[test]
fn a_second_identical_drain_stitches_no_superblock() {
    let scenario = apps::scenarios().remove(0);
    let op = scenario.build(InstrumentMode::Full);

    // Phase 1: two identical passes over four busy shards.
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
        let busy = fleet.shards().iter().map(Shard::pending).all(|d| d > 0);
        assert!(busy, "round {round}: every shard busy");
        drains.push(drain_counting_misses(&mut fleet, devices.len()));
    }
    let [(first, first_misses), (again, misses)] = drains[..] else { unreachable!() };
    assert_eq!(first.threads, again.threads, "identical passes choose the same thread count");
    assert!(first_misses > 0, "the first drain builds its workspaces");
    assert_eq!(misses, 0, "the second drain found every workspace warm");

    // Phase 2: warmth does not depend on the thread count. One proof per
    // shard is too light to spawn for, so it drains inline; a heavy pass
    // over the same two shards then runs on two threads at once, and each
    // shard still finds its own workspace warm.
    let mut fleet =
        Fleet::new(FleetConfig { shards: 2, workers: Some(2), ..FleetConfig::default() });
    let op_id = fleet.register_op(scenario.name, op.clone(), (scenario.policies)());
    let mut per_shard: [Vec<(DeviceId, DialedDevice)>; 2] = [Vec::new(), Vec::new()];
    let mut seed = 0;
    while per_shard.iter().any(|devices| devices.len() < 32) {
        let id = fleet.register_device(op_id, 1000 + seed).unwrap();
        seed += 1;
        let dev = DialedDevice::new(op.clone(), fleet.device_keystore(id).unwrap());
        let shard = fleet.shards().iter().position(|s| s.registry().device(id).is_ok()).unwrap();
        per_shard[shard].push((id, dev));
    }
    for devices in &mut per_shard {
        submit_round(&mut fleet, &mut devices[..1], &scenario);
    }
    let (light, first_misses) = drain_counting_misses(&mut fleet, 2);
    assert_eq!((light.shards, light.threads), (2, 1), "{light}");
    assert!(first_misses > 0, "the inline pass builds both shards' workspaces");

    let mut total = 0;
    for devices in &mut per_shard {
        submit_round(&mut fleet, devices, &scenario);
        total += devices.len();
    }
    let (heavy, misses) = drain_counting_misses(&mut fleet, total);
    assert_eq!((heavy.shards, heavy.threads), (2, 2), "{heavy}");
    assert_eq!(misses, 0, "a two-thread pass found both shards' workspaces warm");
}
