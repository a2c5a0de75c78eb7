//! Loopback soak of the TCP frontend: thousands of simulated devices —
//! honest plus the full attack mix from `tests/fleet.rs` (duplicate,
//! replay, corrupt, wrong-challenge) — multiplexed over a handful of
//! connections, every verdict and every structured rejection checked end
//! to end, and the server proven panic-free by graceful shutdown.
//!
//! Scale: the default run sizes for debug-mode CI (override with
//! `NET_SOAK_DEVICES`); `full_soak_ten_thousand` is `#[ignore]`d and run
//! manually in release for the README throughput numbers.

use dialed::attest::DialedDevice;
use dialed::pipeline::{BuildOptions, InstrumentedOp};
use dialed::report::{Finding, RejectReason, Verdict};
use fleet::wire::{Message, ProofMsg};
use fleet::{Fleet, FleetConfig, NetClient, NetConfig, NetServer};
use std::collections::HashMap;
use std::time::{Duration, Instant};
use vrased::{Challenge, KeyStore};

const OP_SRC: &str = "\
    .org 0xE000\nop:\n mov r15, r10\n add r14, r10\n mov r10, &0x0060\n ret\n";
const ARGS: [u16; 8] = [0, 0, 0, 0, 0, 0, 2, 3];

/// Same role split as `tests/fleet.rs`: 60% honest, 10% each attacker.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Role {
    Honest,
    Duplicate,
    Replayer,
    Corrupter,
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

/// What a reply with a given request id must be.
enum Expect {
    /// A challenge grant; `replay` marks the second session a replayer
    /// opens to replay its captured proof into.
    Grant { idx: usize, replay: bool },
    /// A submission outcome. The body rides along so an `Overloaded`
    /// reject can be retried.
    Submit { body: ProofMsg, kind: SubmitKind },
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum SubmitKind {
    /// Honest proof: verdict must be `Clean`.
    Clean,
    /// Tampered proof: verdict must be `Rejected` with `MacMismatch`.
    Attack,
    /// Second submission of an already-submitted session: session-layer
    /// reject.
    Duplicate,
    /// Captured proof replayed into a fresh session: anti-replay reject.
    Replay,
}

#[derive(Default)]
struct Totals {
    clean: usize,
    attacks: usize,
    dup_rejects: usize,
    replay_rejects: usize,
    overload_retries: usize,
}

/// One worker: drives `devices` (index, id, keystore) through a full
/// attestation round each over a single multiplexed connection, in
/// chunks, asserting every reply.
#[allow(clippy::too_many_lines)]
fn worker(
    addr: std::net::SocketAddr,
    op: &InstrumentedOp,
    devices: &[(usize, u64, KeyStore)],
    chunk: usize,
) -> Totals {
    let mut client = NetClient::connect(addr).expect("connect");
    let mut totals = Totals::default();
    let mut captured: HashMap<usize, ProofMsg> = HashMap::new();

    for batch in devices.chunks(chunk) {
        let mut outstanding: HashMap<u64, Expect> = HashMap::new();
        for &(idx, id, _) in batch {
            let req = client.issue(id).expect("send issue");
            outstanding.insert(req, Expect::Grant { idx, replay: false });
        }
        let by_idx: HashMap<usize, &(usize, u64, KeyStore)> =
            batch.iter().map(|d| (d.0, d)).collect();

        while !outstanding.is_empty() {
            let msg = client.recv().expect("server reply");
            match msg {
                Message::Grant(g) => {
                    let Some(Expect::Grant { idx, replay }) = outstanding.remove(&g.request) else {
                        panic!("uncorrelated grant {g:?}");
                    };
                    let (_, id, ks) = by_idx[&idx];
                    if replay {
                        // Replay the captured round-1 proof into the
                        // fresh session: must die in the replay window.
                        let capture = captured.remove(&idx).expect("captured proof");
                        let body = ProofMsg { session: g.body.session, ..capture };
                        let req = client.submit(body.clone()).expect("send replay");
                        outstanding.insert(req, Expect::Submit { body, kind: SubmitKind::Replay });
                        continue;
                    }
                    let role = role_for(idx);
                    let mut dev = DialedDevice::new(op.clone(), ks.clone());
                    dev.invoke(&ARGS);
                    let mut proof = dev.prove(&g.body.challenge);
                    let kind = match role {
                        Role::Corrupter => {
                            proof.pox.or_data[11] ^= 0x80;
                            SubmitKind::Attack
                        }
                        Role::WrongChallenge => {
                            proof = dev.prove(&Challenge::derive(b"self-chosen", idx as u64));
                            SubmitKind::Attack
                        }
                        _ => SubmitKind::Clean,
                    };
                    let body = ProofMsg { session: g.body.session, device: *id, proof };
                    let req = client.submit(body.clone()).expect("send submit");
                    match role {
                        Role::Duplicate => {
                            // The identical submission again, its own
                            // request id: must die at the session layer.
                            let dup = client.submit(body.clone()).expect("send duplicate");
                            outstanding.insert(
                                dup,
                                Expect::Submit { body: body.clone(), kind: SubmitKind::Duplicate },
                            );
                        }
                        Role::Replayer => {
                            captured.insert(idx, body.clone());
                            let again = client.issue(*id).expect("send replay issue");
                            outstanding.insert(again, Expect::Grant { idx, replay: true });
                        }
                        _ => {}
                    }
                    outstanding.insert(req, Expect::Submit { body, kind });
                }
                Message::Verdict(v) => {
                    let Some(Expect::Submit { kind, .. }) = outstanding.remove(&v.request) else {
                        panic!("uncorrelated verdict {v:?}");
                    };
                    match kind {
                        SubmitKind::Clean => {
                            assert_eq!(v.body.report.verdict, Verdict::Clean, "{v:?}");
                            totals.clean += 1;
                        }
                        SubmitKind::Attack => {
                            assert_eq!(v.body.report.verdict, Verdict::Rejected, "{v:?}");
                            assert!(
                                matches!(
                                    v.body.report.findings.first(),
                                    Some(Finding::PoxRejected {
                                        reason: RejectReason::MacMismatch
                                    })
                                ),
                                "tampered proof must fail the MAC: {v:?}"
                            );
                            totals.attacks += 1;
                        }
                        kind => panic!("{kind:?} submission must not verify: {v:?}"),
                    }
                }
                Message::Reject(r) => {
                    let Some(Expect::Submit { body, kind }) = outstanding.remove(&r.request) else {
                        panic!("uncorrelated reject {r:?}");
                    };
                    if let RejectReason::Overloaded { .. } = r.reason {
                        // Explicit backpressure: retry the identical
                        // submission under a fresh request id.
                        totals.overload_retries += 1;
                        std::thread::sleep(Duration::from_millis(2));
                        let req = client.submit(body.clone()).expect("resend");
                        outstanding.insert(req, Expect::Submit { body, kind });
                        continue;
                    }
                    let RejectReason::SessionViolation { detail } = &r.reason else {
                        panic!("expected session-layer reject, got {r:?}");
                    };
                    match kind {
                        SubmitKind::Duplicate => {
                            assert!(
                                detail.contains("not awaiting a proof"),
                                "duplicate must die as already-submitted: {detail}"
                            );
                            totals.dup_rejects += 1;
                        }
                        SubmitKind::Replay => {
                            assert!(
                                detail.contains("replayed"),
                                "replay must die in the replay window: {detail}"
                            );
                            totals.replay_rejects += 1;
                        }
                        kind => panic!("{kind:?} submission must not session-reject: {r:?}"),
                    }
                }
                other => panic!("unexpected server message {other:?}"),
            }
        }
    }
    totals
}

fn run_soak(n: usize, conns: usize) {
    let op = InstrumentedOp::build(OP_SRC, "op", &BuildOptions::default()).unwrap();
    let mut fleet = Fleet::new(FleetConfig {
        workers: Some(4),
        shards: 4,
        // Logical expiry stays out of the way: attack rejection, not
        // timeout behavior, is under test here.
        challenge_ttl: 1 << 40,
        ..FleetConfig::default()
    });
    let op_id = fleet.register_op("adder", op.clone(), vec![]);
    let provisioned: Vec<(usize, u64, KeyStore)> = (0..n)
        .map(|i| {
            let id = fleet.register_device(op_id, 0x50A4 ^ i as u64).unwrap();
            (i, id.0, fleet.device_keystore(id).unwrap())
        })
        .collect();

    let handle =
        NetServer::spawn(fleet, NetConfig { shed_watermark: 50_000, ..NetConfig::default() })
            .unwrap();
    let addr = handle.addr();

    let start = Instant::now();
    let totals: Vec<Totals> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|w| {
                let lane: Vec<(usize, u64, KeyStore)> =
                    provisioned.iter().filter(|(i, _, _)| i % conns == w).cloned().collect();
                let op = &op;
                scope.spawn(move || worker(addr, op, &lane, 64))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
    });
    let elapsed = start.elapsed();

    let mut sum = Totals::default();
    for t in totals {
        sum.clean += t.clean;
        sum.attacks += t.attacks;
        sum.dup_rejects += t.dup_rejects;
        sum.replay_rejects += t.replay_rejects;
        sum.overload_retries += t.overload_retries;
    }
    let roles: Vec<Role> = (0..n).map(role_for).collect();
    let count = |r: Role| roles.iter().filter(|&&x| x == r).count();
    assert_eq!(
        sum.clean,
        count(Role::Honest) + count(Role::Duplicate) + count(Role::Replayer),
        "every honest proof (incl. the attackers' first submissions) verifies"
    );
    assert_eq!(
        sum.attacks,
        count(Role::Corrupter) + count(Role::WrongChallenge),
        "every tampered proof is rejected with MacMismatch"
    );
    assert_eq!(sum.dup_rejects, count(Role::Duplicate));
    assert_eq!(sum.replay_rejects, count(Role::Replayer));

    // Graceful shutdown: zero panics (join propagation), nothing pending.
    let (fleet, stats) = handle.shutdown().expect("no server thread may panic");
    assert_eq!(fleet.pending(), 0, "shutdown drained every accepted submission");
    assert_eq!(stats.protocol_errors, 0, "honest traffic triggers no protocol errors");
    assert_eq!(stats.verdicts as usize, sum.clean + sum.attacks);
    assert_eq!(stats.session_rejects as usize, sum.dup_rejects + sum.replay_rejects);
    assert_eq!(stats.shed as usize, sum.overload_retries);
    assert_eq!(stats.granted as usize, n + count(Role::Replayer));
    assert_eq!(stats.expired, 0);

    let per_sec = n as f64 / elapsed.as_secs_f64();
    println!(
        "net soak: {n} devices ({} attackers) over {conns} conns in {elapsed:?} \
         → {per_sec:.0} devices/sec end-to-end [{stats}]",
        n - count(Role::Honest),
    );
}

fn scale() -> usize {
    std::env::var("NET_SOAK_DEVICES").ok().and_then(|s| s.parse().ok()).unwrap_or(400)
}

#[test]
fn soak_mixed_fleet_over_loopback() {
    run_soak(scale(), 4);
}

/// The ISSUE-9 acceptance run: ≥10,000 devices. Run manually in release:
/// `cargo test -p dialed-integration --release -- --ignored full_soak`.
#[test]
#[ignore = "release-mode scale run; see module docs"]
fn full_soak_ten_thousand() {
    run_soak(12_000, 8);
}
