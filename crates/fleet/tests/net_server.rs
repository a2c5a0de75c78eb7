//! The TCP frontend, end to end over loopback: honest round trips with
//! request multiplexing, load shedding at the ingest watermark, graceful
//! drain flushing every in-flight verdict, verdicts that do not wait for
//! a timer, and wall-clock session expiry.

use dialed::attest::DialedDevice;
use dialed::pipeline::{BuildOptions, InstrumentedOp};
use dialed::report::{RejectClass, RejectReason, Verdict};
use fleet::wire::Message;
use fleet::{
    DeviceId, Fleet, FleetConfig, NetClient, NetConfig, NetServer, NetServerHandle, SessionId,
};
use std::collections::HashMap;
use std::sync::mpsc;
use std::time::{Duration, Instant};

const OP_SRC: &str = "\
    .org 0xE000\nop:\n mov r15, r10\n add r14, r10\n mov r10, &0x0060\n ret\n";

/// A fleet with `n` registered devices and their device-side simulators.
fn fleet_with_devices(n: u64, cfg: FleetConfig) -> (Fleet, Vec<(DeviceId, DialedDevice)>) {
    let op = InstrumentedOp::build(OP_SRC, "op", &BuildOptions::default()).unwrap();
    let mut fleet = Fleet::new(cfg);
    let op_id = fleet.register_op("adder", op.clone(), vec![]);
    let devices = (0..n)
        .map(|seed| {
            let id = fleet.register_device(op_id, seed).unwrap();
            (id, DialedDevice::new(op.clone(), fleet.device_keystore(id).unwrap()))
        })
        .collect();
    (fleet, devices)
}

fn proof_for(device: &mut DialedDevice, chal: &fleet::ChallengeMsg) -> fleet::ProofMsg {
    device.invoke(&[0, 0, 0, 0, 0, 0, 2, 3]);
    fleet::ProofMsg {
        session: chal.session,
        device: chal.device,
        proof: device.prove(&chal.challenge),
    }
}

#[test]
fn honest_devices_round_trip_multiplexed() {
    let (fleet, mut devices) = fleet_with_devices(
        8,
        FleetConfig { workers: Some(2), shards: 4, ..FleetConfig::default() },
    );
    let handle = NetServer::spawn(fleet, NetConfig::default()).unwrap();

    // All eight devices share one connection; pipeline every issue, then
    // every submit, correlating replies by request id.
    let mut client = NetClient::connect(handle.addr()).unwrap();
    let mut issue_reqs = HashMap::new();
    for (i, (id, _)) in devices.iter().enumerate() {
        issue_reqs.insert(client.issue(id.0).unwrap(), i);
    }
    let mut chals = HashMap::new();
    for _ in 0..devices.len() {
        match client.recv().unwrap() {
            Message::Grant(g) => {
                let i = issue_reqs[&g.request];
                chals.insert(i, g.body);
            }
            other => panic!("expected grant, got {other:?}"),
        }
    }

    let mut submit_reqs = HashMap::new();
    for (i, chal) in &chals {
        let msg = proof_for(&mut devices[*i].1, chal);
        submit_reqs.insert(client.submit(msg).unwrap(), *i);
    }
    let mut verdicts = 0;
    for _ in 0..devices.len() {
        match client.recv().unwrap() {
            Message::Verdict(v) => {
                let i = submit_reqs[&v.request];
                assert_eq!(v.body.device, devices[i].0 .0, "verdict routed to wrong device");
                assert_eq!(v.body.report.verdict, Verdict::Clean, "{:?}", v.body.report);
                verdicts += 1;
            }
            other => panic!("expected verdict, got {other:?}"),
        }
    }
    assert_eq!(verdicts, devices.len());

    let (fleet, stats) = handle.shutdown().expect("no server thread may panic");
    assert_eq!(stats.granted, 8);
    assert_eq!(stats.submitted, 8);
    assert_eq!(stats.verdicts, 8);
    assert_eq!(stats.protocol_errors, 0);
    assert_eq!(fleet.pending(), 0, "graceful shutdown drains ingest");
}

/// A granted challenge and the proof answering it, for every device.
fn granted_proofs(
    client: &mut NetClient,
    devices: &mut [(DeviceId, DialedDevice)],
) -> Vec<fleet::ProofMsg> {
    devices
        .iter_mut()
        .map(|(id, device)| {
            let chal = client.request_challenge(id.0).unwrap().expect("grant");
            proof_for(device, &chal)
        })
        .collect()
}

/// Runs `pipeline` while the core thread is stalled inside a blocking
/// admin closure, and lets the core go only once the server has read
/// every frame `pipeline` wrote — so the whole burst sits in the command
/// channel, in order, when the core resumes.
///
/// `pipeline` returns how many frames it wrote. One more frame (an issue
/// for `barrier_device`, answered by a grant some time after the release)
/// is sent behind them: a reader counts a frame before it forwards it, so
/// only the count *including* the barrier proves the burst was forwarded.
fn with_core_stalled(
    handle: &NetServerHandle,
    client: &mut NetClient,
    barrier_device: DeviceId,
    pipeline: impl FnOnce(&mut NetClient) -> u64,
) {
    let (entered_tx, entered_rx) = mpsc::channel::<()>();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            handle.admin(move |_| {
                let _ = entered_tx.send(());
                let _ = release_rx.recv();
            })
        });
        entered_rx.recv().expect("the stall closure runs on the core");
        let want = handle.stats().frames_in + pipeline(client) + 1;
        client.issue(barrier_device.0).unwrap();
        while handle.stats().frames_in < want {
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(release_tx);
    });
}

/// Every reply up to the server's orderly close.
fn recv_until_eof(client: &mut NetClient) -> Vec<Message> {
    let mut replies = Vec::new();
    loop {
        match client.recv() {
            Ok(msg) => replies.push(msg),
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return replies,
            Err(e) => panic!("client read failed: {e}"),
        }
    }
}

#[test]
fn submissions_past_the_watermark_are_shed() {
    let (fleet, mut devices) = fleet_with_devices(
        7,
        FleetConfig { workers: Some(1), shards: 1, ..FleetConfig::default() },
    );
    // Tiny watermark: a burst that reaches the core in one piece backs the
    // queue up and the shed path must answer with explicit backpressure.
    let handle =
        NetServer::spawn(fleet, NetConfig { shed_watermark: 2, ..NetConfig::default() }).unwrap();

    let mut client = NetClient::connect(handle.addr()).unwrap();
    let (barrier, _) = devices.pop().unwrap();
    let proofs = granted_proofs(&mut client, &mut devices);
    let mut reqs = Vec::new();
    with_core_stalled(&handle, &mut client, barrier, |client| {
        reqs.extend(proofs.into_iter().map(|p| client.submit(p).unwrap()));
        reqs.len() as u64
    });
    // The core applies the burst in connection order before it verifies:
    // the first `watermark` submissions are accepted, the rest are shed.
    let (accepted, past) = reqs.split_at(2);

    // Graceful shutdown owes the accepted two their verdicts.
    let (_, stats) = handle.shutdown().expect("no server thread may panic");
    assert_eq!(stats.shed, 4);
    assert_eq!(stats.submitted, 2);
    let (mut flushed, mut shed) = (Vec::new(), Vec::new());
    for msg in recv_until_eof(&mut client) {
        match msg {
            Message::Verdict(v) => flushed.push(v.request),
            Message::Reject(r) => {
                match r.reason {
                    RejectReason::Overloaded { pending } => {
                        assert_eq!(pending, 2, "shed reports the observed depth");
                    }
                    other => panic!("expected Overloaded, got {other:?}"),
                }
                shed.push(r.request);
            }
            Message::Grant(_) => {} // the barrier
            other => panic!("expected verdict or shed reject, got {other:?}"),
        }
    }
    assert_eq!(shed, past, "every submission past the watermark is shed");
    flushed.sort_unstable();
    assert_eq!(flushed, accepted, "exactly the accepted submissions get verdicts");
}

#[test]
fn graceful_drain_loses_no_inflight_verdict() {
    let n = 24u64;
    let (fleet, mut devices) = fleet_with_devices(
        n + 1,
        FleetConfig { workers: Some(2), shards: 4, ..FleetConfig::default() },
    );
    let handle = NetServer::spawn(fleet, NetConfig::default()).unwrap();

    let mut client = NetClient::connect(handle.addr()).unwrap();
    let (barrier, _) = devices.pop().unwrap();
    let proofs = granted_proofs(&mut client, &mut devices);
    let mut submit_reqs = Vec::new();
    with_core_stalled(&handle, &mut client, barrier, |client| {
        submit_reqs.extend(proofs.into_iter().map(|p| client.submit(p).unwrap()));
        n
    });

    // Shut down with the whole burst still in the command channel (or at
    // best mid-verification): every accepted submission is owed a verdict.
    let (fleet, stats) = handle.shutdown().expect("no server thread may panic");
    assert_eq!(stats.submitted, n, "all submissions were accepted before shutdown");
    assert_eq!(stats.verdicts, n, "every in-flight verdict was emitted");

    let mut flushed: Vec<u64> = Vec::new();
    for msg in recv_until_eof(&mut client) {
        match msg {
            Message::Verdict(v) => {
                assert_eq!(v.body.report.verdict, Verdict::Clean);
                flushed.push(v.request);
            }
            Message::Grant(_) => {} // the barrier
            other => panic!("expected verdict, got {other:?}"),
        }
    }
    flushed.sort_unstable();
    submit_reqs.sort_unstable();
    assert_eq!(flushed, submit_reqs, "every accepted submission got its verdict frame");
    assert_eq!(fleet.pending(), 0);
}

#[test]
fn a_queued_backlog_is_verified_as_one_batch() {
    let n = 24u64;
    let (fleet, mut devices) = fleet_with_devices(
        n + 1,
        FleetConfig { workers: Some(2), shards: 4, ..FleetConfig::default() },
    );
    // Housekeeping an hour away: only verify passes count in `drains`.
    let handle = NetServer::spawn(
        fleet,
        NetConfig { drain_interval: Duration::from_secs(3600), ..NetConfig::default() },
    )
    .unwrap();

    let mut client = NetClient::connect(handle.addr()).unwrap();
    let (barrier, _) = devices.pop().unwrap();
    let proofs = granted_proofs(&mut client, &mut devices);
    let before = handle.stats().drains;
    with_core_stalled(&handle, &mut client, barrier, |client| {
        for p in proofs {
            client.submit(p).unwrap();
        }
        n
    });
    let mut verdicts = 0;
    while verdicts < n {
        match client.recv().unwrap() {
            Message::Verdict(v) => {
                assert_eq!(v.body.report.verdict, Verdict::Clean);
                verdicts += 1;
            }
            Message::Grant(_) => {} // the barrier
            other => panic!("expected verdict, got {other:?}"),
        }
    }
    // Work that piled up while the core was busy is applied in one piece
    // and verified together — not one verify pass per submission.
    assert_eq!(handle.stats().drains - before, 1, "{n} queued submissions, one verify pass");
    handle.shutdown().expect("no server thread may panic");
}

#[test]
fn a_lone_submission_does_not_wait_for_the_timer() {
    let (fleet, mut devices) = fleet_with_devices(
        1,
        FleetConfig { workers: Some(1), shards: 1, ..FleetConfig::default() },
    );
    // With housekeeping an hour away, only the work-conserving rule can
    // produce this verdict.
    let handle = NetServer::spawn(
        fleet,
        NetConfig { drain_interval: Duration::from_secs(3600), ..NetConfig::default() },
    )
    .unwrap();

    let addr = handle.addr();
    let (id, mut device) = devices.pop().unwrap();
    let (done_tx, done_rx) = mpsc::channel();
    std::thread::spawn(move || {
        let mut client = NetClient::connect(addr).unwrap();
        let chal = client.request_challenge(id.0).unwrap().expect("grant");
        let proof = proof_for(&mut device, &chal);
        let sent = Instant::now();
        let req = client.submit(proof).unwrap();
        let reply = client.recv().unwrap();
        let _ = done_tx.send((req, reply, sent.elapsed()));
    });
    let (req, reply, waited) = done_rx
        .recv_timeout(Duration::from_secs(20))
        .expect("the verdict must not wait for the housekeeping clock");
    match reply {
        Message::Verdict(v) => {
            assert_eq!(v.request, req);
            assert_eq!(v.body.report.verdict, Verdict::Clean);
        }
        other => panic!("expected verdict, got {other:?}"),
    }
    assert!(waited < Duration::from_secs(1), "submit → verdict took {waited:?}");

    let (_, stats) = handle.shutdown().expect("no server thread may panic");
    assert_eq!(stats.verdicts, 1);
}

#[test]
fn sessions_expire_on_the_wall_clock() {
    // 5 ms ticks and the default 64-tick TTL: challenges die ~320 ms
    // after issue, driven purely by the server's housekeeping clock.
    let (fleet, mut devices) = fleet_with_devices(
        1,
        FleetConfig { workers: Some(1), shards: 1, ..FleetConfig::default() },
    );
    let handle = NetServer::spawn(
        fleet,
        NetConfig {
            tick: Duration::from_millis(5),
            drain_interval: Duration::from_millis(10),
            ..NetConfig::default()
        },
    )
    .unwrap();

    let mut client = NetClient::connect(handle.addr()).unwrap();
    let (id, device) = &mut devices[0];
    let chal = client.request_challenge(id.0).unwrap().expect("grant");
    let doomed = SessionId(chal.session);
    std::thread::sleep(Duration::from_millis(600));
    let req = client.submit(proof_for(device, &chal)).unwrap();
    match client.recv().unwrap() {
        Message::Reject(r) => {
            assert_eq!(r.request, req);
            assert!(
                matches!(r.reason, RejectReason::SessionViolation { .. }),
                "expired challenge must reject at the session layer: {:?}",
                r.reason
            );
        }
        other => panic!("expected expiry reject, got {other:?}"),
    }

    // A fresh challenge still works: expiry killed the session, not the
    // device or the connection.
    let chal = client.request_challenge(id.0).unwrap().expect("grant");
    let req = client.submit(proof_for(device, &chal)).unwrap();
    match client.recv().unwrap() {
        Message::Verdict(v) => {
            assert_eq!(v.request, req);
            assert_eq!(v.body.report.verdict, Verdict::Clean);
        }
        other => panic!("expected verdict, got {other:?}"),
    }

    let (fleet, stats) = handle.shutdown().expect("no server thread may panic");
    assert!(stats.session_rejects >= 1);
    assert!(stats.drains >= 10, "the wall clock must have driven idle housekeeping passes");
    assert!(fleet.session(doomed).is_none(), "housekeeping expired and pruned the dead session");
}

#[test]
fn deregistration_races_an_open_networked_session() {
    // A device is deregistered (decommissioned, key revoked) while one of
    // its sessions is open over a live connection. The late submit must
    // get a structured session reject — not a panic, not a dropped
    // connection — and the connection must stay usable for other devices.
    let (fleet, mut devices) = fleet_with_devices(
        2,
        FleetConfig { workers: Some(1), shards: 1, ..FleetConfig::default() },
    );
    let handle = NetServer::spawn(
        fleet,
        NetConfig { drain_interval: Duration::from_millis(10), ..NetConfig::default() },
    )
    .unwrap();

    let mut client = NetClient::connect(handle.addr()).unwrap();
    let (doomed, doomed_dev) = &mut devices[0];
    let chal = client.request_challenge(doomed.0).unwrap().expect("grant");
    let proof = proof_for(doomed_dev, &chal);

    // The race, made deterministic: the admin closure runs on the core
    // thread, serialized with connection traffic, and `admin` blocks
    // until it has been applied — so the deregistration lands before the
    // submit below is processed.
    let doomed_id = *doomed;
    let expired = handle
        .admin(move |f| f.deregister_device(doomed_id))
        .expect("server alive")
        .expect("device was registered");
    assert_eq!(expired, 1, "the open session is expired by deregistration");

    let req = client.submit(proof).unwrap();
    match client.recv().unwrap() {
        Message::Reject(r) => {
            assert_eq!(r.request, req);
            assert_eq!(
                r.reason.class(),
                RejectClass::Session,
                "late submit must die at the session layer: {:?}",
                r.reason
            );
        }
        other => panic!("expected session reject, got {other:?}"),
    }

    // A fresh challenge for the deregistered device is refused too.
    let refused = client.request_challenge(doomed_id.0).unwrap();
    assert!(refused.is_err(), "deregistered device must not be granted a challenge");

    // The other device — same connection — is untouched.
    let (alive, alive_dev) = &mut devices[1];
    let chal = client.request_challenge(alive.0).unwrap().expect("grant");
    let req = client.submit(proof_for(alive_dev, &chal)).unwrap();
    match client.recv().unwrap() {
        Message::Verdict(v) => {
            assert_eq!(v.request, req);
            assert_eq!(v.body.report.verdict, Verdict::Clean, "{:?}", v.body.report);
        }
        other => panic!("expected verdict, got {other:?}"),
    }

    let (_, stats) = handle.shutdown().expect("no server thread may panic");
    assert_eq!(stats.protocol_errors, 0, "the race is not a protocol violation");
    assert!(
        stats.rejects_for(RejectClass::Session) >= 1,
        "the session-layer reject is accounted by class: {stats}"
    );
}
