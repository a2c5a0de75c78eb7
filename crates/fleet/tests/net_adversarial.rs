//! Adversarial socket behavior against the TCP frontend, over real
//! loopback connections: garbage bytes, truncated frames, oversized
//! length prefixes, undecodable payloads, mid-frame disconnects,
//! slow-loris trickles, and peers that stop reading their replies. The
//! server must never panic — every test ends in
//! `shutdown().expect(..)`, which propagates any server-thread panic —
//! and every violation is answered with a structured reject or a clean
//! close, with the server staying healthy for honest traffic afterwards.

use dialed::attest::DialedDevice;
use dialed::pipeline::{BuildOptions, InstrumentedOp};
use dialed::report::{RejectReason, Verdict};
use fleet::wire::{self, Message};
use fleet::{DeviceId, Fleet, FleetConfig, NetClient, NetConfig, NetServer, NetServerHandle};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::{Duration, Instant};

const OP_SRC: &str = "\
    .org 0xE000\nop:\n mov r15, r10\n add r14, r10\n mov r10, &0x0060\n ret\n";

fn server(cfg: NetConfig) -> (NetServerHandle, DeviceId, DialedDevice) {
    let op = InstrumentedOp::build(OP_SRC, "op", &BuildOptions::default()).unwrap();
    let mut fleet =
        Fleet::new(FleetConfig { workers: Some(1), shards: 2, ..FleetConfig::default() });
    let op_id = fleet.register_op("adder", op.clone(), vec![]);
    let id = fleet.register_device(op_id, 7).unwrap();
    let device = DialedDevice::new(op.clone(), fleet.device_keystore(id).unwrap());
    (NetServer::spawn(fleet, cfg).unwrap(), id, device)
}

/// Reads until EOF, returning the structured rejects seen on the way.
fn drain_to_eof(client: &mut NetClient) -> Vec<RejectReason> {
    let mut rejects = Vec::new();
    loop {
        match client.recv() {
            Ok(Message::Reject(r)) => rejects.push(r.reason),
            Ok(other) => panic!("expected reject or close, got {other:?}"),
            Err(e) if e.kind() == ErrorKind::UnexpectedEof => return rejects,
            // The server may reset the connection after its FIN if bytes
            // were still in flight; that is a close, not a hang.
            Err(e) if e.kind() == ErrorKind::ConnectionReset => return rejects,
            Err(e) => panic!("client read failed: {e}"),
        }
    }
}

/// One honest round trip, proving the server survived whatever the test
/// threw at it.
fn honest_round_trip(handle: &NetServerHandle, id: DeviceId, device: &mut DialedDevice) {
    let mut client = NetClient::connect(handle.addr()).unwrap();
    let chal = client.request_challenge(id.0).unwrap().expect("grant");
    device.invoke(&[0, 0, 0, 0, 0, 0, 2, 3]);
    let req = client
        .submit(fleet::ProofMsg {
            session: chal.session,
            device: chal.device,
            proof: device.prove(&chal.challenge),
        })
        .unwrap();
    match client.recv().unwrap() {
        Message::Verdict(v) => {
            assert_eq!(v.request, req);
            assert_eq!(v.body.report.verdict, Verdict::Clean);
        }
        other => panic!("expected verdict, got {other:?}"),
    }
}

fn assert_malformed(rejects: &[RejectReason], needle: &str) {
    assert_eq!(rejects.len(), 1, "exactly one structured reject: {rejects:?}");
    match &rejects[0] {
        RejectReason::MalformedSubmission { detail } => {
            assert!(detail.contains(needle), "detail {detail:?} lacks {needle:?}");
        }
        other => panic!("expected MalformedSubmission, got {other:?}"),
    }
}

#[test]
fn garbage_bytes_are_rejected_then_closed() {
    let (handle, id, mut device) = server(NetConfig::default());

    let mut client = NetClient::connect(handle.addr()).unwrap();
    client.send_bytes(b"\xDE\xAD\xBE\xEFnot a frame at all").unwrap();
    assert_malformed(&drain_to_eof(&mut client), "magic");

    honest_round_trip(&handle, id, &mut device);
    let (_, stats) = handle.shutdown().expect("no server thread may panic");
    assert_eq!(stats.protocol_errors, 1);
}

#[test]
fn wrong_version_is_rejected_then_closed() {
    let (handle, id, mut device) = server(NetConfig::default());

    let mut client = NetClient::connect(handle.addr()).unwrap();
    let mut frame = wire::encode(&Message::Issue(wire::IssueMsg { request: 1, device: id.0 }));
    frame[2] = 0x7F;
    client.send_bytes(&frame).unwrap();
    assert_malformed(&drain_to_eof(&mut client), "version");

    honest_round_trip(&handle, id, &mut device);
    handle.shutdown().expect("no server thread may panic");
}

#[test]
fn oversized_length_prefix_is_rejected_at_the_header() {
    let (handle, id, mut device) = server(NetConfig { max_frame: 1 << 16, ..NetConfig::default() });

    let mut client = NetClient::connect(handle.addr()).unwrap();
    // A valid prefix announcing a 4 GiB payload: refused from the header
    // alone, no payload bytes ever buffered.
    let mut frame = wire::encode(&Message::Issue(wire::IssueMsg { request: 1, device: id.0 }));
    frame[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
    client.send_bytes(&frame[..wire::HEADER_LEN]).unwrap();
    assert_malformed(&drain_to_eof(&mut client), "cap");

    honest_round_trip(&handle, id, &mut device);
    handle.shutdown().expect("no server thread may panic");
}

#[test]
fn undecodable_payload_is_rejected_then_closed() {
    let (handle, id, mut device) = server(NetConfig::default());

    let mut client = NetClient::connect(handle.addr()).unwrap();
    // Correct header, correct length, garbage payload: an unknown
    // message tag inside a well-framed envelope.
    let mut frame = wire::encode(&Message::Issue(wire::IssueMsg { request: 1, device: id.0 }));
    frame[3] = 0xEE;
    client.send_bytes(&frame).unwrap();
    assert_malformed(&drain_to_eof(&mut client), "tag");

    honest_round_trip(&handle, id, &mut device);
    handle.shutdown().expect("no server thread may panic");
}

#[test]
fn server_to_client_messages_are_not_valid_requests() {
    let (handle, id, mut device) = server(NetConfig::default());

    let mut client = NetClient::connect(handle.addr()).unwrap();
    client
        .send(&Message::Reject(wire::RejectMsg { request: 9, reason: RejectReason::MacMismatch }))
        .unwrap();
    assert_malformed(&drain_to_eof(&mut client), "unexpected");

    honest_round_trip(&handle, id, &mut device);
    handle.shutdown().expect("no server thread may panic");
}

#[test]
fn mid_frame_disconnect_is_a_clean_close() {
    let (handle, id, mut device) = server(NetConfig::default());

    // Several rounds: send a prefix of a valid frame — cut anywhere, down
    // to a single byte — then vanish. The server must shrug every time.
    let frame = wire::encode(&Message::Issue(wire::IssueMsg { request: 1, device: id.0 }));
    for cut in [1usize, 3, wire::HEADER_LEN - 1, wire::HEADER_LEN, frame.len() - 1] {
        let mut client = NetClient::connect(handle.addr()).unwrap();
        client.send_bytes(&frame[..cut]).unwrap();
        drop(client);
    }
    // Give the readers a beat to observe the EOFs.
    std::thread::sleep(Duration::from_millis(50));

    honest_round_trip(&handle, id, &mut device);
    let (_, stats) = handle.shutdown().expect("no server thread may panic");
    assert_eq!(stats.protocol_errors, 0, "disconnects are closes, not violations");
}

#[test]
fn slow_loris_writers_are_cut_off() {
    let (handle, id, mut device) = server(NetConfig {
        idle_frame_timeout: Duration::from_millis(120),
        ..NetConfig::default()
    });

    // Trickle a valid frame one byte every 40 ms: each poll sees fresh
    // bytes, but the frame never completes — the stall clock must not
    // reset on the trickle.
    let frame = wire::encode(&Message::Issue(wire::IssueMsg { request: 1, device: id.0 }));
    let mut client = NetClient::connect(handle.addr()).unwrap();
    let start = std::time::Instant::now();
    let mut cut = None;
    for byte in frame.iter().take(6) {
        if client.send_bytes(std::slice::from_ref(byte)).is_err() {
            cut = Some(start.elapsed());
            break;
        }
        std::thread::sleep(Duration::from_millis(40));
    }
    let rejects = drain_to_eof(&mut client);
    let elapsed = cut.unwrap_or_else(|| start.elapsed());
    assert!(elapsed < Duration::from_secs(2), "loris must be cut off promptly, took {elapsed:?}");
    if !rejects.is_empty() {
        assert_malformed(&rejects, "stalled");
    }

    honest_round_trip(&handle, id, &mut device);
    let (_, stats) = handle.shutdown().expect("no server thread may panic");
    assert_eq!(stats.protocol_errors, 1, "the stall is a counted violation");
}

#[test]
fn random_garbage_fuzz_never_hangs_or_panics() {
    let (handle, id, mut device) = server(NetConfig::default());

    // Deterministic xorshift garbage: many connections, each throwing a
    // different byte salad, each ending in reject-or-close.
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut rand = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for round in 0..32 {
        let len = (rand() % 200 + 1) as usize;
        let bytes: Vec<u8> = (0..len).map(|_| (rand() & 0xFF) as u8).collect();
        let mut client = NetClient::connect(handle.addr()).unwrap();
        if client.send_bytes(&bytes).is_err() {
            continue; // server already rejected and closed mid-write
        }
        if round % 2 == 0 {
            drop(client); // half the peers vanish without reading
        } else {
            let _ = drain_to_eof(&mut client);
        }
    }

    honest_round_trip(&handle, id, &mut device);
    handle.shutdown().expect("no server thread may panic");
}

#[test]
fn a_peer_that_never_reads_is_cut_off() {
    let (handle, id, mut device) = server(NetConfig::default());

    // Pipelined issues for a device nobody registered, written in batches
    // and never read: replies far past what the kernel's socket buffers
    // and the server's parked-output cap hold together. (An unknown device
    // leaves the honest device's sessions alone.)
    let batch: Vec<u8> = (0..1024)
        .flat_map(|request| {
            wire::encode(&Message::Issue(wire::IssueMsg { request, device: id.0 + 1 }))
        })
        .collect();
    let mut hog = TcpStream::connect(handle.addr()).unwrap();
    let flood = {
        let mut hog = hog.try_clone().unwrap();
        std::thread::spawn(move || (0..256).all(|_| hog.write_all(&batch).is_ok()))
    };
    let deadline = Instant::now() + Duration::from_secs(20);
    while handle.stats().frames_in < 10_000 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }

    // Another connection is served meanwhile.
    honest_round_trip(&handle, id, &mut device);

    // The flood is written once the server's socket buffers hold it, not
    // once the server has read it: the hog starts reading only when the
    // server has stopped taking requests in — it read the whole flood, or
    // cut the hog off first — and has answered every one it took. (A hog
    // that read sooner would be a slow reader, which is kept.)
    let _ = flood.join();
    let mut last = None;
    while Instant::now() < deadline {
        let stats = handle.stats();
        let seen = Some((stats.frames_in, stats.session_rejects));
        if seen == last {
            break;
        }
        last = seen;
        std::thread::sleep(Duration::from_millis(50));
    }

    // Then the hog's reading side finds the server gone: its buffered
    // grants, then EOF or a reset — not a socket that stays open with
    // nothing more to say.
    hog.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
    let mut buf = vec![0u8; 64 * 1024];
    let closed = loop {
        match hog.read(&mut buf) {
            Ok(0) => break true,
            Ok(_) if Instant::now() < deadline => {}
            Err(e) if e.kind() == ErrorKind::ConnectionReset => break true,
            Ok(_) | Err(_) => break false,
        }
    };
    assert!(closed, "a peer that stopped reading must be cut off");

    let (done_tx, done_rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = done_tx.send(handle.shutdown().map(|(_, stats)| stats));
    });
    let stats = done_rx
        .recv_timeout(Duration::from_secs(5))
        .expect("shutdown must not wait on a peer that stopped reading")
        .expect("no server thread may panic");
    assert_eq!(stats.protocol_errors, 0, "not reading is not a protocol violation");
}

/// Pipelines `n` `Issue`s (request ids `0..n`) for a device nobody
/// registered on a raw socket, and returns it once the core has answered
/// them all. Nothing is read back: with `n` in the hundreds of thousands
/// the rejects owed outgrow the kernel's socket buffers, and the rest is
/// parked in the server.
fn pipeline_unread(handle: &NetServerHandle, id: DeviceId, n: u64) -> TcpStream {
    let frames: Vec<u8> = (0..n)
        .flat_map(|request| {
            wire::encode(&Message::Issue(wire::IssueMsg { request, device: id.0 + 1 }))
        })
        .collect();
    let mut sock = TcpStream::connect(handle.addr()).unwrap();
    sock.write_all(&frames).unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    while handle.stats().frames_in < n {
        assert!(Instant::now() < deadline, "the server reads a pipeline it cannot answer");
        std::thread::sleep(Duration::from_millis(1));
    }
    // Runs on the core after every request already queued.
    handle.admin(|_| ()).expect("server is running");
    sock
}

#[test]
fn a_peer_that_stops_reading_is_cut_off_without_slowing_others() {
    // A parked-output cap this test never reaches, so only the stall
    // clock can cut the peer off; and a long poll interval, so a core
    // that waited on the stalled socket would show in every round trip.
    let idle = Duration::from_secs(3);
    let (handle, id, _) = server(NetConfig {
        max_frame: 64 << 20,
        idle_frame_timeout: idle,
        poll_interval: Duration::from_millis(50),
        ..NetConfig::default()
    });
    let hog = pipeline_unread(&handle, id, 256 * 1024);
    let idle_from = Instant::now();

    // The hog now sends nothing and reads nothing, with output parked.
    let mut client = NetClient::connect(handle.addr()).unwrap();
    let mut rtts: Vec<Duration> = (0..20)
        .map(|_| {
            let start = Instant::now();
            client.request_challenge(id.0).unwrap().expect("grant");
            start.elapsed()
        })
        .collect();
    rtts.sort();
    assert!(rtts[10] < Duration::from_millis(20), "round trips wait on the hog: {rtts:?}");
    drop(client);

    // Cut off by the stall clock: its reader ends and its slot frees.
    while handle.active_conns() > 0 {
        assert!(idle_from.elapsed() < idle + Duration::from_secs(2), "the hog is never cut off");
        std::thread::sleep(Duration::from_millis(5));
    }
    drop(hog);
    let (_, stats) = handle.shutdown().expect("no server thread may panic");
    assert_eq!(stats.protocol_errors, 0, "not reading is not a protocol violation");
}

#[test]
fn a_slow_reader_gets_every_reply_across_shutdown() {
    // No cap or stall clock this test reaches: the peer reads late and
    // slowly, but it reads.
    let (handle, id, _) = server(NetConfig {
        max_frame: 64 << 20,
        idle_frame_timeout: Duration::from_secs(60),
        ..NetConfig::default()
    });
    let n = 256 * 1024;
    let mut peer = pipeline_unread(&handle, id, n);

    // Shutdown starts with replies still parked: the core must keep
    // writing while the peer reads, and only then send FIN.
    let (done_tx, done_rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = done_tx.send(handle.shutdown().map(|(_, stats)| stats));
    });
    std::thread::sleep(Duration::from_millis(200));
    let mut frames = wire::FrameReader::new(1 << 20);
    let mut buf = vec![0u8; 16 * 1024];
    let mut replies = 0;
    loop {
        let k = peer.read(&mut buf).expect("a reading peer is not cut off");
        if k == 0 {
            break;
        }
        frames.feed(&buf[..k]);
        while let Some(msg) = frames.poll().unwrap() {
            match msg {
                Message::Reject(r) => assert_eq!(r.request, replies, "replies arrive in order"),
                other => panic!("expected a reject, got {other:?}"),
            }
            replies += 1;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!((replies, frames.buffered()), (n, 0), "every reply, whole, then FIN");
    let stats = done_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("shutdown returns once the peer has read everything")
        .expect("no server thread may panic");
    assert_eq!(stats.frames_out, n, "every frame was handed to the socket whole");
}
