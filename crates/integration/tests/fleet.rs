//! End-to-end fleet simulation: 500 devices across two operations, with a
//! mix of honest devices, replayers, duplicate submitters, proof
//! corrupters and wrong-challenge responders — every message crossing the
//! wire codec, every verdict flowing back through sharded batch ingest.

use apps::fire_sensor;
use dialed::attest::DialedDevice;
use dialed::pipeline::{BuildOptions, InstrumentMode, InstrumentedOp};
use dialed::report::Verdict;
use fleet::wire::{self, Message, ProofMsg};
use fleet::{DeviceId, Fleet, FleetConfig, OpId, SessionError, SessionId, SessionState};
use vrased::Challenge;

/// What each simulated device does with its challenge.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Role {
    /// Proves honestly, submits once.
    Honest,
    /// Proves honestly, then submits the identical frame a second time.
    Duplicate,
    /// Proves honestly; later replays the captured proof against a fresh
    /// session.
    Replayer,
    /// Flips a byte of the OR log before submitting.
    Corrupter,
    /// Answers a challenge it made up instead of the issued one.
    WrongChallenge,
}

fn role_for(i: usize) -> Role {
    match i % 10 {
        6 => Role::Duplicate,
        7 => Role::Replayer,
        8 => Role::Corrupter,
        9 => Role::WrongChallenge,
        _ => Role::Honest,
    }
}

/// One device's bookkeeping for the round.
struct SimDevice {
    id: DeviceId,
    role: Role,
    device: DialedDevice,
    feed: fn(&mut msp430::platform::Platform),
    args: [u16; 8],
    /// Sessions whose verdict must be `Verified`.
    verified_sessions: Vec<SessionId>,
    /// Sessions whose verdict must be `Rejected`.
    rejected_sessions: Vec<SessionId>,
}

fn no_feed(_: &mut msp430::platform::Platform) {}

const TINY_SRC: &str = "\
    .org 0xE000\nop:\n mov r15, r10\n add r14, r10\n mov r10, &0x0060\n ret\n";

/// Round-trips a message through the wire codec, asserting fidelity —
/// every protocol byte string in this test crosses encode/decode.
fn via_wire(msg: Message) -> Message {
    let bytes = wire::encode(&msg);
    let decoded = wire::decode(&bytes).expect("wire round-trip");
    assert_eq!(decoded, msg, "decode(encode(x)) must equal x");
    decoded
}

fn provision(
    fleet: &mut Fleet,
    op_id: OpId,
    op: &InstrumentedOp,
    feed: fn(&mut msp430::platform::Platform),
    args: [u16; 8],
    count: usize,
    seed_base: u64,
) -> Vec<SimDevice> {
    (0..count)
        .map(|i| {
            let id = fleet.register_device(op_id, seed_base + i as u64).unwrap();
            let ks = fleet.device_keystore(id).unwrap();
            SimDevice {
                id,
                // Device ids are fleet-global and sequential, so they give
                // each device its role independent of the op split.
                role: role_for(id.0 as usize),
                device: DialedDevice::new(op.clone(), ks),
                feed,
                args,
                verified_sessions: Vec::new(),
                rejected_sessions: Vec::new(),
            }
        })
        .collect()
}

#[test]
fn five_hundred_device_mixed_fleet() {
    let mut fleet = Fleet::new(FleetConfig { workers: Some(4), ..FleetConfig::default() });

    // Two operations ⇒ two ingest shards: the paper's fire sensor and a
    // tiny adder, both fully instrumented.
    let sensor = fire_sensor::scenario().build(InstrumentMode::Full);
    let sensor_id = fleet.register_op("fire-sensor", sensor.clone(), vec![]);
    let tiny = InstrumentedOp::build(TINY_SRC, "op", &BuildOptions::default()).unwrap();
    let tiny_id = fleet.register_op("adder", tiny.clone(), vec![]);

    let mut sim: Vec<SimDevice> = Vec::with_capacity(500);
    sim.extend(provision(
        &mut fleet,
        sensor_id,
        &sensor,
        fire_sensor::feed_nominal,
        fire_sensor::scenario().args,
        300,
        1_000,
    ));
    sim.extend(provision(
        &mut fleet,
        tiny_id,
        &tiny,
        no_feed,
        [0, 0, 0, 0, 0, 0, 2, 3],
        200,
        9_000,
    ));
    assert_eq!(sim.len(), 500);

    let now = 0u64;
    let mut session_errors = 0usize;
    let mut replay_captures: Vec<(usize, ProofMsg)> = Vec::new();

    // Round 1: every device gets a challenge (via the wire) and answers
    // according to its role (via the wire).
    for (i, d) in sim.iter_mut().enumerate() {
        let chal = fleet.issue(d.id, now).unwrap();
        let Message::Challenge(chal) = via_wire(Message::Challenge(chal)) else { unreachable!() };
        let sid = SessionId(chal.session);

        (d.feed)(d.device.platform_mut());
        let info = d.device.invoke(&d.args);
        assert_eq!(info.stop, apex::pox::StopReason::ReachedStop, "device {i}");

        let mut proof = d.device.prove(&chal.challenge);
        match d.role {
            Role::Corrupter => {
                proof.pox.or_data[11] ^= 0x80;
                d.rejected_sessions.push(sid);
            }
            Role::WrongChallenge => {
                proof = d.device.prove(&Challenge::derive(b"self-chosen", i as u64));
                d.rejected_sessions.push(sid);
            }
            _ => d.verified_sessions.push(sid),
        }

        let frame = wire::encode(&Message::Proof(ProofMsg {
            session: chal.session,
            device: d.id.0,
            proof: proof.clone(),
        }));
        fleet.submit_wire(&frame, now + 1).expect("first submission is always accepted");

        match d.role {
            Role::Duplicate => {
                // Identical frame again: must die at the session layer.
                let err = fleet.submit_wire(&frame, now + 2).unwrap_err();
                assert_eq!(
                    err,
                    Ok(SessionError::NotAwaitingProof(SessionState::Submitted)),
                    "device {i}"
                );
                session_errors += 1;
            }
            Role::Replayer => {
                replay_captures
                    .push((i, ProofMsg { session: chal.session, device: d.id.0, proof }));
            }
            _ => {}
        }
    }

    // Replayers: a fresh session is issued, but the captured round-1 proof
    // is replayed into it. The anti-replay window must reject it before
    // any verification work; the fresh session stays Issued.
    let mut replay_sessions: Vec<SessionId> = Vec::new();
    for (i, capture) in &replay_captures {
        let d = &sim[*i];
        let chal = fleet.issue(d.id, now + 2).unwrap();
        let replay = ProofMsg { session: chal.session, ..capture.clone() };
        let frame = wire::encode(&Message::Proof(replay));
        let err = fleet.submit_wire(&frame, now + 3).unwrap_err();
        assert_eq!(err, Ok(SessionError::ReplayedProof), "device {i}");
        session_errors += 1;
        replay_sessions.push(SessionId(chal.session));
    }

    // Nothing rejected at the session layer ever reached the queue.
    assert_eq!(fleet.pending(), 500, "exactly one accepted submission per device");

    // Drain: every state shard has work, and each shard batches its two
    // operations separately for the shared engines.
    let (stats, expired) = fleet.drain(now + 4);
    assert_eq!(stats.drained, 500);
    assert_eq!(stats.shards, fleet.shards().len(), "500 devices reach every state shard");
    assert_eq!(stats.batches, 2 * fleet.shards().len(), "two ops per shard ⇒ two batches each");
    assert_eq!(expired, 0);
    assert_eq!(fleet.pending(), 0);

    let honest: usize = sim.iter().map(|d| d.verified_sessions.len()).sum();
    let hostile: usize = sim.iter().map(|d| d.rejected_sessions.len()).sum();
    assert_eq!(stats.verified, honest, "every honest device must end Verified");
    assert_eq!(stats.rejected, hostile, "every corrupted/wrong-challenge proof must fail");
    assert_eq!(honest + hostile, 500);

    for d in &sim {
        for &sid in &d.verified_sessions {
            let s = fleet.session(sid).unwrap();
            assert_eq!(s.state, SessionState::Verified, "{sid} of {:?}", d.role);
            let dev = fleet.device(d.id).unwrap();
            assert_eq!(dev.last_verified, Some(s.nonce));
        }
        for &sid in &d.rejected_sessions {
            let s = fleet.session(sid).unwrap();
            assert_eq!(s.state, SessionState::Rejected, "{sid} of {:?}", d.role);
            let report = s.report.as_ref().unwrap();
            assert_eq!(report.verdict, Verdict::Rejected);
            // Rejected cryptographically: the emulator never ran.
            assert_eq!(report.stats.emulated_insns, 0, "{sid} reached emulation");
        }
        // Every resolved session's report survives the wire.
        for &sid in d.verified_sessions.iter().chain(&d.rejected_sessions) {
            let msg = fleet.report_msg(sid).unwrap();
            via_wire(Message::Report(msg));
        }
    }

    // The replayed-into sessions were never resolved (still Issued) and
    // eventually expire rather than verify.
    for &sid in &replay_sessions {
        assert_eq!(fleet.session(sid).unwrap().state, SessionState::Issued);
    }
    let (_, expired) = fleet.drain(now + 1_000_000);
    assert_eq!(expired, replay_sessions.len());

    assert_eq!(session_errors, 100, "50 duplicates + 50 replays died at the session layer");

    // Registry totals line up with the per-role accounting.
    let verified_total: u64 = fleet.devices().map(|d| d.verified).sum();
    let rejected_total: u64 = fleet.devices().map(|d| d.rejected).sum();
    assert_eq!(verified_total as usize, honest);
    assert_eq!(rejected_total as usize, hostile);
}

/// One attestation round for every app × instrumentation mode, in memory
/// and durable: 16 devices each issue, prove, submit over the wire codec
/// and drain, and every one of them must end `Verified`.
#[test]
fn every_app_and_mode_verifies_a_round_in_memory_and_durable() {
    const DEVICES: u64 = 16;
    for scenario in apps::scenarios() {
        for mode in [InstrumentMode::Original, InstrumentMode::CfaOnly, InstrumentMode::Full] {
            let op = scenario.build(mode);
            let dir = std::env::temp_dir().join(format!(
                "dialed-app-round-{}-{}-{mode:?}",
                std::process::id(),
                scenario.name
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let fleets = [
                ("in-memory", Fleet::new(FleetConfig::default())),
                ("durable", Fleet::durable(&dir, FleetConfig::default()).unwrap()),
            ];
            for (kind, mut fleet) in fleets {
                let label = format!("{}/{mode:?}/{kind}", scenario.name);
                let op_id = fleet.register_op(scenario.name, op.clone(), (scenario.policies)());
                for seed in 0..DEVICES {
                    let id = fleet.register_device(op_id, 0xBEE5 + seed).unwrap();
                    let mut dev = DialedDevice::new(op.clone(), fleet.device_keystore(id).unwrap());
                    (scenario.feed)(dev.platform_mut());
                    let info = dev.invoke(&scenario.args);
                    assert_eq!(info.stop, apex::pox::StopReason::ReachedStop, "{label}");
                    let chal = fleet.issue(id, 0).unwrap();
                    let frame = wire::encode(&Message::Proof(ProofMsg {
                        session: chal.session,
                        device: id.0,
                        proof: dev.prove(&chal.challenge),
                    }));
                    fleet.submit_wire(&frame, 0).unwrap();
                }
                let (stats, _) = fleet.drain(0);
                assert_eq!(stats.verified as u64, DEVICES, "{label}: {stats}");
                assert!(fleet.devices().all(|d| d.verified == 1), "{label}");
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
