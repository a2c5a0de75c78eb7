//! Accepting a PoX-only proof frame allocates nothing once the fleet is
//! warm. `Fleet::submit_wire` decodes the frame straight into the packed
//! form its session holds, in which the output region's zero run — all of
//! a PoX-only region — is a count, and each shard's ingest batch keeps its
//! buffer from one drain to the next.
//!
//! The workspace otherwise denies `unsafe_code`; this test binary opts out
//! locally because the shared counting-allocator harness (see
//! `crates/msp430/tests/support/counting_alloc.rs`) implements
//! `GlobalAlloc`.

#![allow(unsafe_code)]

use dialed::attest::DialedDevice;
use dialed::pipeline::InstrumentMode;
use fleet::wire::{self, Message, ProofMsg};
use fleet::{DeviceId, Fleet, FleetConfig};

include!("../../msp430/tests/support/counting_alloc.rs");

/// Devices per application.
const DEVICES: u64 = 8;

/// Rounds before the measured ones: the first grows the ingest batches
/// and sizes each device's anti-replay window for
/// `FleetConfig::default().replay_window` (32) tags.
const WARM_ROUNDS: u64 = 1;

/// Measured rounds: enough for every device's window to fill, so a window
/// that grew as tags arrived would show here.
const ROUNDS: u64 = 32;

/// Runs without the libtest harness (see `Cargo.toml`): the measurement
/// must be the only thing executing in the process, since harness threads
/// allocate concurrently and would pollute the counters.
fn main() {
    pox_only_submissions_are_allocation_free();
    println!("zero_alloc: ok");
}

fn pox_only_submissions_are_allocation_free() {
    let mut fleet = Fleet::new(FleetConfig { workers: Some(1), ..FleetConfig::default() });
    let mut devices: Vec<(DeviceId, DialedDevice)> = Vec::new();
    for scenario in apps::scenarios() {
        let op = scenario.build(InstrumentMode::Original);
        let op_id = fleet.register_op(scenario.name, op.clone(), (scenario.policies)());
        for seed in 0..DEVICES {
            let id = fleet.register_device(op_id, seed).unwrap();
            let mut sim = DialedDevice::new(op.clone(), fleet.device_keystore(id).unwrap());
            (scenario.feed)(sim.platform_mut());
            sim.invoke(&scenario.args);
            devices.push((id, sim));
        }
    }

    let mut allocs = Vec::new();
    for round in 0..WARM_ROUNDS + ROUNDS {
        let now = round * 4;
        let frames: Vec<Vec<u8>> = devices
            .iter()
            .map(|(id, sim)| {
                let chal = fleet.issue(*id, now).unwrap();
                let proof = sim.prove(&chal.challenge);
                assert!(
                    proof.pox.or_data.iter().all(|&b| b == 0),
                    "a PoX-only region is unwritten"
                );
                wire::encode(&Message::Proof(ProofMsg {
                    session: chal.session,
                    device: id.0,
                    proof,
                }))
            })
            .collect();
        let before = allocations();
        for frame in &frames {
            fleet.submit_wire(frame, now).expect("a fresh proof is accepted");
        }
        allocs.push(allocations() - before);
        let (stats, _) = fleet.drain(now);
        assert_eq!(stats.verified, devices.len(), "round {round}");
        fleet.prune_resolved(now);
    }
    assert!(allocs[0] > 0, "the counting allocator sees the first round grow the fleet");
    assert!(
        allocs[WARM_ROUNDS as usize..].iter().all(|&n| n == 0),
        "a warm round of {} submissions allocated (per round: {allocs:?})",
        devices.len()
    );
}
