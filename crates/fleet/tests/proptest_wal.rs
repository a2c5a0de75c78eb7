//! WAL-robustness properties: truncating or corrupting the durable state
//! at an arbitrary byte offset must never panic recovery. Recovery
//! always yields a fleet representing some valid prefix of the committed
//! history — counters never exceed what was committed — and that fleet
//! keeps serving. Each case compacts its history at generated points, so
//! mutations hit compacted state and appended records in varying
//! proportions; since a shard keeps one segment, every file mutated is a
//! live log.

use dialed::attest::DialedDevice;
use dialed::pipeline::{BuildOptions, InstrumentedOp};
use fleet::{CatalogFn, Fleet, FleetConfig, SessionId};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

const OP_SRC: &str = "\
    .org 0xE000\nop:\n mov r15, r10\n add r14, r10\n mov r10, &0x0060\n ret\n";

const DEVICES: u64 = 3;
const ROUNDS: u64 = 3;

fn config() -> FleetConfig {
    FleetConfig { workers: Some(1), shards: 2, ..FleetConfig::default() }
}

fn catalog() -> impl fleet::OpCatalog {
    CatalogFn(|name: &str| {
        (name == "adder").then(|| {
            (InstrumentedOp::build(OP_SRC, "op", &BuildOptions::default()).unwrap(), vec![])
        })
    })
}

/// Builds the canonical durable state in a fresh per-case directory: 3
/// devices, 3 verified rounds each, plus one accepted-but-undrained
/// submission (which recovery forgets). Bit `i` of `snaps` compacts every
/// shard at the `i`-th of the history's 13 points (after each submission
/// and each drain).
fn build_state(name: &str, snaps: u16) -> PathBuf {
    static CASE: AtomicUsize = AtomicUsize::new(0);
    let case = CASE.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("dialed-walprop-{}-{name}-{case}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut fleet = Fleet::durable(&dir, config()).unwrap();
    let mut point = 0;
    let mut maybe_snapshot = |fleet: &mut Fleet| {
        if snaps & (1 << point) != 0 {
            fleet.snapshot().unwrap();
        }
        point += 1;
    };
    let op = InstrumentedOp::build(OP_SRC, "op", &BuildOptions::default()).unwrap();
    let op_id = fleet.register_op("adder", op.clone(), vec![]);
    let devs: Vec<_> =
        (0..DEVICES).map(|seed| fleet.register_device(op_id, seed).unwrap()).collect();
    let mut sims: Vec<_> = devs
        .iter()
        .map(|&d| DialedDevice::new(op.clone(), fleet.device_keystore(d).unwrap()))
        .collect();
    for round in 0..ROUNDS {
        for (i, &dev) in devs.iter().enumerate() {
            let chal = fleet.issue(dev, round * 10).unwrap();
            sims[i].invoke(&[0; 8]);
            let proof = sims[i].prove(&chal.challenge);
            fleet.submit(SessionId(chal.session), dev, proof, round * 10 + 1).unwrap();
            maybe_snapshot(&mut fleet);
        }
        fleet.drain(round * 10 + 2);
        maybe_snapshot(&mut fleet);
    }
    // One in-flight submission left undrained at "crash" time.
    let chal = fleet.issue(devs[0], 100).unwrap();
    let proof = sims[0].prove(&chal.challenge);
    fleet.submit(SessionId(chal.session), devs[0], proof, 101).unwrap();
    maybe_snapshot(&mut fleet);
    dir
}

/// Every durable file under the state dir, relative to it, in a stable
/// order so a proptest index addresses the same file on every run.
fn state_files(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                stack.push(path);
            } else {
                files.push(path.strip_prefix(dir).unwrap().to_path_buf());
            }
        }
    }
    files.sort();
    files
}

/// Total committed verified count in the base state.
fn base_verified() -> u64 {
    DEVICES * ROUNDS
}

/// Asserts the recovered fleet is a valid prefix of the base history and
/// still serves a fresh honest round end to end.
fn assert_valid_prefix_and_live(mut fleet: Fleet) {
    let verified: u64 = fleet.devices().map(|d| d.verified).sum();
    assert!(
        verified <= base_verified(),
        "recovery must never invent history: {verified} > {}",
        base_verified()
    );
    // The whole history ran in boot epoch 0, where a device's nonce is its
    // round number; every challenge issued after the restart must be
    // greater than any nonce the device verified before it.
    let history: Vec<_> = fleet.devices().map(|d| (d.id, d.last_verified)).collect();
    for (dev, last) in history {
        if let Some(n) = last {
            assert!(n < ROUNDS, "last-verified nonce {n} beyond committed history");
            let fresh = fleet.issue(dev, 150).unwrap().nonce;
            assert!(fresh > n, "{dev}: nonce {fresh} after a restart reuses history up to {n}");
        }
    }
    // Submissions never survive a restart, whatever was in flight.
    assert_eq!(fleet.pending(), 0, "a restart forgets undrained submissions");

    // The survivor keeps working: register a brand-new device and push an
    // honest round through the full pipeline.
    let op_id = match fleet.ops().ops().next() {
        Some(rec) => rec.id,
        // The meta log's op registration was itself destroyed: still a
        // valid prefix (the empty one); nothing further to drive.
        None => return,
    };
    let dev = fleet.register_device(op_id, 0xFEED).unwrap();
    let op = InstrumentedOp::build(OP_SRC, "op", &BuildOptions::default()).unwrap();
    let mut sim = DialedDevice::new(op, fleet.device_keystore(dev).unwrap());
    let chal = fleet.issue(dev, 200).unwrap();
    sim.invoke(&[0; 8]);
    let proof = sim.prove(&chal.challenge);
    fleet.submit(SessionId(chal.session), dev, proof, 201).unwrap();
    let (stats, _) = fleet.drain(202);
    assert!(stats.verified >= 1, "fresh round must verify on the recovered fleet");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Truncating any durable file at any byte offset: recovery never
    /// panics and yields a valid prefix state.
    #[test]
    fn truncated_tail_recovers_to_a_valid_prefix(
        snaps in any::<u16>(),
        file_sel in 0usize..1024,
        cut_sel in 0usize..10_000,
    ) {
        let dir = build_state("trunc", snaps);
        let files = state_files(&dir);
        let target = dir.join(&files[file_sel % files.len()]);
        let bytes = std::fs::read(&target).unwrap();
        let cut = bytes.len() * cut_sel / 10_000;
        std::fs::write(&target, &bytes[..cut.min(bytes.len())]).unwrap();

        let fleet = Fleet::recover(&dir, config(), &catalog())
            .expect("truncation must never make recovery fail, only shorten history");
        assert_valid_prefix_and_live(fleet);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Flipping bits at any byte offset of any durable file: recovery
    /// never panics; it either drops the damaged suffix (valid prefix) or
    /// reports a structured error — never garbage state.
    #[test]
    fn corrupted_byte_never_panics_recovery(
        snaps in any::<u16>(),
        file_sel in 0usize..1024,
        pos_sel in 0usize..10_000,
        mask in 1u8..=255,
    ) {
        let dir = build_state("corrupt", snaps);
        let files = state_files(&dir);
        let target = dir.join(&files[file_sel % files.len()]);
        let mut bytes = std::fs::read(&target).unwrap();
        if !bytes.is_empty() {
            let pos = (bytes.len() * pos_sel / 10_000).min(bytes.len() - 1);
            bytes[pos] ^= mask;
            std::fs::write(&target, &bytes).unwrap();
        }

        // CRC-guarded records make most corruption look like a torn tail
        // (Ok with shortened history); header damage can surface as a
        // structured RecoverError. Both are acceptable; panicking is not.
        if let Ok(fleet) = Fleet::recover(&dir, config(), &catalog()) {
            assert_valid_prefix_and_live(fleet);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
