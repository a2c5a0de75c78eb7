//! What a compacted shard segment is made of, on the end-to-end
//! benchmark's durable population: the three paper applications built as
//! PoX-only (`Original`) images, 16 384 devices each over 4 shards, the
//! first 512 of each attesting every round. A round issues, proves,
//! submits and drains one session per attesting device, then advances the
//! clock 4 ticks and prunes, so the default 64-tick TTL keeps 16 rounds of
//! resolved history. After the rounds every shard is compacted, and the
//! four segments are read back and split by record kind.
//!
//! ```text
//! cargo run --release -p fleet --example segment_split [-- ROUNDS]
//! ```

use dialed::attest::DialedDevice;
use dialed::pipeline::InstrumentMode;
use fleet::store::{encode_event, read_events};
use fleet::{Fleet, FleetConfig, SessionId, StateEvent};
use std::collections::HashSet;

const PER_APP: usize = 16_384;
const ACTIVE_PER_APP: usize = 512;
const TICKS_PER_ROUND: u64 = 4;

fn main() {
    let rounds: u64 = std::env::args().nth(1).map_or(40, |r| r.parse().expect("ROUNDS"));
    let dir = std::env::temp_dir().join(format!("dialed-segment-split-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = FleetConfig::default();
    let shards = config.shards;
    let mut fleet = Fleet::durable(&dir, config).expect("state directory is writable");

    let mut active = Vec::new();
    for (app, scenario) in apps::scenarios().into_iter().enumerate() {
        let op = scenario.build(InstrumentMode::Original);
        let op_id = fleet.register_op(scenario.name, op.clone(), (scenario.policies)());
        for i in 0..PER_APP {
            let dev = fleet.register_device(op_id, (app * PER_APP + i) as u64).unwrap();
            if i < ACTIVE_PER_APP {
                let mut sim = DialedDevice::new(op.clone(), fleet.device_keystore(dev).unwrap());
                (scenario.feed)(sim.platform_mut());
                sim.invoke(&scenario.args);
                active.push((dev, sim));
            }
        }
    }

    let mut now = 0;
    for _ in 0..rounds {
        for (dev, sim) in &active {
            let chal = fleet.issue(*dev, now).unwrap();
            let proof = sim.prove(&chal.challenge);
            fleet.submit(SessionId(chal.session), *dev, proof, now).unwrap();
        }
        assert_eq!(fleet.drain(now).0.verified, active.len(), "every round verifies");
        now += TICKS_PER_ROUND;
        fleet.prune_resolved(now);
    }
    fleet.snapshot().expect("compaction");

    // (records, bytes) per kind, framing included.
    let kinds = ["untouched devices", "attested devices", "counters", "resolved sessions", "other"];
    let mut split = [(0u64, 0u64); 5];
    let mut file_bytes = 0;
    for shard in 0..shards {
        let shard_dir = dir.join(format!("shard-{shard}"));
        let segment = std::fs::read_dir(&shard_dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.extension().is_some_and(|x| x == "log"))
            .expect("one segment");
        file_bytes += std::fs::metadata(&segment).unwrap().len();
        let (events, _) = read_events(&segment).unwrap();
        let counted: HashSet<_> = events
            .iter()
            .filter_map(|ev| match ev {
                StateEvent::DeviceCounters { device, .. } => Some(*device),
                _ => None,
            })
            .collect();
        for ev in &events {
            let kind = match ev {
                StateEvent::DeviceRegistered { device, .. } if counted.contains(device) => 1,
                StateEvent::DeviceRegistered { .. } => 0,
                StateEvent::DeviceCounters { .. } => 2,
                StateEvent::VerdictRecorded { .. } => 3,
                _ => 4,
            };
            split[kind].0 += 1;
            split[kind].1 += 8 + encode_event(ev).len() as u64;
        }
    }
    println!(
        "{rounds} rounds, {} attesting of {} devices, {shards} shards",
        active.len(),
        3 * PER_APP
    );
    println!("{:<20} {:>9} {:>11} {:>9}", "record kind", "records", "bytes", "B/record");
    for (kind, (records, bytes)) in kinds.iter().zip(split) {
        let per = if records > 0 { bytes as f64 / records as f64 } else { 0.0 };
        println!("{kind:<20} {records:>9} {bytes:>11} {per:>9.1}");
    }
    println!("{:<20} {:>9} {file_bytes:>11} (with {shards} file headers)", "segments", "");
    let _ = std::fs::remove_dir_all(&dir);
}
