//! A `Submit` is bound to its session by the session id and the device id
//! it names, not by a MAC: the proof's MAC is checked only when the shard
//! drains. An on-path adversary who sees a challenge can therefore fill
//! its session with a forged proof. This pins what that costs the honest
//! device, as `SessionManager::check_submit` documents it: the round, and
//! nothing more. The forgery passes the session layer and ends `Rejected`
//! on the MAC; the honest answer then finds the session no longer
//! awaiting a proof; and a fresh challenge verifies.

use dialed::attest::DialedDevice;
use dialed::pipeline::{BuildOptions, InstrumentedOp};
use dialed::report::{Finding, RejectReason};
use fleet::wire::{self, Message, ProofMsg};
use fleet::{Fleet, FleetConfig, SessionError, SessionId, SessionState};

const OP_SRC: &str = "\
    .org 0xE000\nop:\n mov r15, r10\n add r14, r10\n mov r10, &0x0060\n ret\n";

#[test]
fn a_forged_submit_costs_the_device_one_round() {
    let mut fleet = Fleet::new(FleetConfig { workers: Some(1), ..FleetConfig::default() });
    let op = InstrumentedOp::build(OP_SRC, "op", &BuildOptions::default()).unwrap();
    let op_id = fleet.register_op("adder", op.clone(), vec![]);
    let dev = fleet.register_device(op_id, 7).unwrap();
    let mut device = DialedDevice::new(op, fleet.device_keystore(dev).unwrap());
    device.invoke(&[0, 0, 0, 0, 0, 0, 2, 3]);

    // The adversary answers the challenge first, with a proof whose MAC
    // is wrong, in a frame that names the right session and device.
    let chal = fleet.issue(dev, 0).unwrap();
    let sid = SessionId(chal.session);
    let honest = device.prove(&chal.challenge);
    let mut forged = honest.clone();
    forged.pox.tag[0] ^= 1;
    let frame = wire::encode(&Message::Proof(ProofMsg {
        session: chal.session,
        device: dev.0,
        proof: forged,
    }));
    assert_eq!(fleet.submit_wire(&frame, 1), Ok(sid), "the session layer takes it");
    assert_eq!(fleet.verify_pending(&mut Vec::new()).rejected, 1);
    let s = fleet.session(sid).unwrap();
    assert_eq!(s.state, SessionState::Rejected);
    let mac = Finding::PoxRejected { reason: RejectReason::MacMismatch };
    assert_eq!(s.report.as_ref().unwrap().findings.first(), Some(&mac));

    // The honest answer arrives second and finds the round spent.
    assert_eq!(
        fleet.submit(sid, dev, honest, 2),
        Err(SessionError::NotAwaitingProof(SessionState::Rejected))
    );

    // The device re-attests under a fresh challenge, and that verifies.
    let chal = fleet.issue(dev, 3).unwrap();
    let proof = device.prove(&chal.challenge);
    fleet.submit(SessionId(chal.session), dev, proof, 4).unwrap();
    assert_eq!(fleet.verify_pending(&mut Vec::new()).verified, 1);
    let rec = fleet.device(dev).unwrap();
    assert_eq!((rec.verified, rec.rejected, rec.last_verified), (1, 1, Some(chal.nonce)));
}
