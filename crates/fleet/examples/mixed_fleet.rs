//! A mixed fleet on the durable, sharded attestation service: one
//! PoX-only operation and one full-DIALED operation, individually keyed
//! devices, consistent-hash state shards with write-ahead logs — and a
//! crash in the middle.
//!
//! The fire sensor ships a `CfaOnly` image — no I-Log, so the best the
//! server can do is the cryptographic proof of execution. The syringe
//! pump ships a `Full` image and gets complete data-flow verification
//! plus its safety policies. Both register into one [`Fleet`], which
//! routes each device to a state shard, journals every mutation, drains
//! the shards in parallel through per-operation verifiers — and,
//! after the simulated crash, recovers from disk and refuses a replayed
//! proof it accepted in its previous life.
//!
//! ```text
//! cargo run -p fleet --example mixed_fleet
//! ```

use apps::{app_build_options, fire_sensor, syringe_pump};
use dialed::attest::DialedDevice;
use dialed::pipeline::{InstrumentMode, InstrumentedOp};
use fleet::wire::{self, Message, ProofMsg};
use fleet::{CatalogFn, DeviceId, Fleet, FleetConfig, SessionError, SessionId};

const DEVICES: u64 = 4;

fn build_op(name: &str) -> InstrumentedOp {
    match name {
        "fire-sensor" => InstrumentedOp::build(
            fire_sensor::SOURCE,
            "fire_op",
            &app_build_options(InstrumentMode::CfaOnly),
        )
        .expect("sensor image builds"),
        "syringe-pump" => InstrumentedOp::build(
            syringe_pump::SOURCE,
            "syringe_op",
            &app_build_options(InstrumentMode::Full),
        )
        .expect("pump image builds"),
        other => panic!("unknown op {other}"),
    }
}

/// The recovery catalog: operations are code artifacts, so a restarted
/// service rebuilds them from source instead of reading them off disk.
fn catalog() -> impl fleet::OpCatalog {
    CatalogFn(|name: &str| {
        let policies = if name == "syringe-pump" { syringe_pump::policies() } else { vec![] };
        matches!(name, "fire-sensor" | "syringe-pump").then(|| (build_op(name), policies))
    })
}

/// One device-side attestation: answer the fleet's challenge over the
/// wire and return the encoded proof frame.
fn answer(fleet: &mut Fleet, sim: &mut DialedDevice, id: DeviceId, now: u64) -> Vec<u8> {
    let chal = fleet.issue(id, now).expect("registered device");
    let proof = sim.prove(&chal.challenge);
    wire::encode(&Message::Proof(ProofMsg { session: chal.session, device: id.0, proof }))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir().join(format!("dialed-mixed-fleet-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // ---- Life 1: provision, attest, crash mid-flight. ------------------
    let mut captured_frame = Vec::new();
    {
        let mut fleet = Fleet::durable(&dir, FleetConfig::default())?;
        let sensor_id = fleet.register_op("fire-sensor", build_op("fire-sensor"), vec![]);
        let pump_id =
            fleet.register_op("syringe-pump", build_op("syringe-pump"), syringe_pump::policies());

        let mut sims: Vec<(DeviceId, DialedDevice)> = Vec::new();
        for i in 0..DEVICES * 2 {
            let (op_id, op_name) =
                if i % 2 == 0 { (sensor_id, "fire-sensor") } else { (pump_id, "syringe-pump") };
            let dev = fleet.register_device(op_id, 0x100 + i)?;
            let mut sim = DialedDevice::new(build_op(op_name), fleet.device_keystore(dev)?);
            if i % 2 == 0 {
                sim.platform_mut().adc.feed(&[fire_sensor::raw_for_temp(30), 0x0600]);
            } else {
                syringe_pump::feed_nominal(sim.platform_mut());
            }
            sim.invoke(&[0; 8]);
            sims.push((dev, sim));
        }

        println!(
            "mixed fleet: {DEVICES} PoX-only sensors + {DEVICES} full-DIALED pumps \
             over {} durable shards",
            fleet.shards().len()
        );
        for (dev, sim) in &mut sims {
            let frame = answer(&mut fleet, sim, *dev, 0);
            fleet.submit_wire(&frame, 1).expect("fresh proof is accepted");
            captured_frame = frame; // keep the last one for the replay attack
        }
        let (stats, _) = fleet.drain(2);
        println!("  round 1: {stats}");
        assert_eq!(stats.verified as u64, DEVICES * 2);

        // One more submission is accepted — and then the process "dies"
        // before draining it. The WAL has it; memory is about to not.
        let (dev, sim) = &mut sims[0];
        let frame = answer(&mut fleet, sim, *dev, 3);
        fleet.submit_wire(&frame, 4).expect("accepted, never drained");
        println!("  crash with {} submission in flight", fleet.pending());
    }

    // ---- Life 2: recover from disk. ------------------------------------
    let mut fleet = Fleet::recover(&dir, FleetConfig::default(), &catalog())?;
    println!(
        "recovered: {} devices, {} submission pending",
        fleet.devices().count(),
        fleet.pending()
    );
    assert_eq!(fleet.pending(), 1);

    // The interrupted round completes as if nothing happened.
    let (stats, _) = fleet.drain(5);
    println!("  resumed drain: {stats}");
    assert_eq!(stats.verified, 1);

    // The replay attack: a proof verified in life 1, resubmitted against
    // a fresh session of the same device. The recovered anti-replay
    // window kills it before any cryptography runs.
    let Ok(Message::Proof(old)) = wire::decode(&captured_frame) else { unreachable!() };
    let chal = fleet.issue(DeviceId(old.device), 6)?;
    let replay = wire::encode(&Message::Proof(ProofMsg { session: chal.session, ..old }));
    let err = fleet.submit_wire(&replay, 7).expect_err("replay must be refused");
    assert_eq!(err, Ok(SessionError::ReplayedProof));
    println!("  replayed life-1 proof against {}: {}", SessionId(chal.session), err.unwrap());

    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}
