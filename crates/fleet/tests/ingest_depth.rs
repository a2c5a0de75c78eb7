//! Per-shard ingest queue depths: [`Fleet::ingest_depth_of`] (one entry of
//! [`Fleet::ingest_depths`]) is the load-shedding signal the network
//! frontend reads, so its accounting must track submissions exactly — one
//! increment on the submitted session's target shard, back to zero after a
//! drain.

use dialed::attest::DialedDevice;
use dialed::pipeline::{BuildOptions, InstrumentedOp};
use fleet::{DeviceId, Fleet, FleetConfig, SessionId};

const OP_SRC: &str = "\
    .org 0xE000\nop:\n mov r15, r10\n add r14, r10\n mov r10, &0x0060\n ret\n";

#[test]
fn ingest_depths_track_submissions_per_shard() {
    let shards = 4usize;
    let mut fleet = Fleet::new(FleetConfig { workers: Some(1), shards, ..FleetConfig::default() });
    let op = InstrumentedOp::build(OP_SRC, "op", &BuildOptions::default()).unwrap();
    let op_id = fleet.register_op("adder", op.clone(), vec![]);

    let mut devices: Vec<(DeviceId, DialedDevice)> = (0..12u64)
        .map(|seed| {
            let id = fleet.register_device(op_id, seed).unwrap();
            (id, DialedDevice::new(op.clone(), fleet.device_keystore(id).unwrap()))
        })
        .collect();

    assert_eq!(fleet.ingest_depths(), vec![0; shards], "fresh fleet queues nothing");

    // Submit every device and check the depth accounting after each one:
    // exactly the target shard (sessions route by id modulo shard count)
    // gains one queued entry.
    let mut expected = vec![0usize; shards];
    for (id, device) in &mut devices {
        let chal = fleet.issue(*id, 0).unwrap();
        device.invoke(&[0, 0, 0, 0, 0, 0, 2, 3]);
        let proof = device.prove(&chal.challenge);
        fleet.submit(SessionId(chal.session), *id, proof, 1).unwrap();
        let shard = usize::try_from(chal.session).unwrap() % shards;
        expected[shard] += 1;
        assert_eq!(fleet.ingest_depths(), expected);
        assert_eq!(fleet.ingest_depth_of(SessionId(chal.session)), expected[shard]);
    }
    assert_eq!(
        fleet.ingest_depths().iter().sum::<usize>(),
        fleet.pending(),
        "depths sum to the fleet-wide pending count"
    );

    // A drain consumes every queue.
    let (stats, _) = fleet.drain(2);
    assert_eq!(stats.drained, devices.len());
    assert_eq!(fleet.ingest_depths(), vec![0; shards], "drain empties every queue");
}
