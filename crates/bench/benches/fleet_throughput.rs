//! Fleet-service throughput: devices/second for one complete attestation
//! round — challenge issuance, device-side proof, wire encode/decode,
//! session admission, sharded batch drain — over the three paper
//! applications × all three instrumentation modes.
//!
//! `Full` rounds pay the DIALED price (MAC + abstract execution + OR
//! recomputation per device); `Original`/`CfaOnly` rounds are verified at
//! the PoX level (MAC only), so the mode axis shows what the DFA guarantee
//! costs per device at the service level — the fleet-scale analogue of the
//! paper's Fig. 6 device-side overhead axis.
//!
//! Each group measures the in-memory fleet (`round`) against the durable
//! one (`round-durable`, WAL + periodic snapshots on a temp dir), so the
//! price of crash-consistency is a first-class number.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use dialed::attest::DialedDevice;
use dialed::pipeline::InstrumentMode;
use fleet::wire::{self, Message, ProofMsg};
use fleet::{DeviceId, Fleet, FleetConfig};
use std::path::PathBuf;

/// Devices per simulated fleet round.
const FLEET_SIZE: usize = 16;

struct Prepared {
    label: String,
    fleet: Fleet,
    devices: Vec<(DeviceId, DialedDevice)>,
    now: u64,
}

/// One end-to-end attestation round for every device; returns how many
/// sessions ended `Verified`.
fn round(p: &mut Prepared) -> usize {
    for (id, dev) in &mut p.devices {
        let chal = p.fleet.issue(*id, p.now).expect("registered device");
        let frame = wire::encode(&Message::Proof(ProofMsg {
            session: chal.session,
            device: id.0,
            proof: dev.prove(&chal.challenge),
        }));
        p.fleet.submit_wire(&frame, p.now).expect("fresh proof is accepted");
    }
    let (stats, _) = p.fleet.drain(p.now);
    p.now += 4;
    // Evict resolved history so state (and durable snapshots) stay O(fleet)
    // across iterations instead of growing with rounds measured.
    p.fleet.prune_resolved(p.now);
    stats.verified
}

/// A fresh temp state dir for one durable bench group.
fn state_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "dialed-bench-wal-{}-{}",
        std::process::id(),
        label.replace('/', "-")
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn prepare(scenario: &apps::Scenario, mode: InstrumentMode, dir: Option<&PathBuf>) -> Prepared {
    let op = scenario.build(mode);
    // Default snapshot cadence: each round commits ~3 events per device,
    // so snapshots (and their fsync) recur every ~20 rounds per shard —
    // measured rounds see the amortized durable cost, appends dominating.
    let config = FleetConfig::default();
    let mut fleet = match dir {
        Some(dir) => Fleet::durable(dir, config).expect("temp state dir is writable"),
        None => Fleet::new(config),
    };
    let op_id = fleet.register_op(scenario.name, op.clone(), (scenario.policies)());
    let mut devices = Vec::with_capacity(FLEET_SIZE);
    for i in 0..FLEET_SIZE {
        let id = fleet.register_device(op_id, 0xBEE5 + i as u64).expect("op registered");
        let mut dev = DialedDevice::new(op.clone(), fleet.device_keystore(id).expect("device"));
        (scenario.feed)(dev.platform_mut());
        let info = dev.invoke(&scenario.args);
        assert_eq!(info.stop, apex::pox::StopReason::ReachedStop, "{}", scenario.name);
        devices.push((id, dev));
    }
    let mut p = Prepared { label: format!("{}/{mode:?}", scenario.name), fleet, devices, now: 0 };
    // Smoke: every device of every mode must end Verified before we
    // measure anything.
    assert_eq!(round(&mut p), FLEET_SIZE, "{}", p.label);
    p
}

fn bench_fleet(c: &mut Criterion) {
    for scenario in apps::scenarios() {
        for mode in [InstrumentMode::Original, InstrumentMode::CfaOnly, InstrumentMode::Full] {
            let mut p = prepare(&scenario, mode, None);
            let dir = state_dir(&p.label);
            let mut durable = prepare(&scenario, mode, Some(&dir));
            let group_name = format!("fleet/{}", p.label);
            let mut group = c.benchmark_group(&group_name);
            group.throughput(Throughput::Elements(FLEET_SIZE as u64));
            group.bench_function("round", |b| {
                b.iter(|| {
                    let verified = round(&mut p);
                    assert_eq!(verified, FLEET_SIZE);
                });
            });
            group.bench_function("round-durable", |b| {
                b.iter(|| {
                    let verified = round(&mut durable);
                    assert_eq!(verified, FLEET_SIZE);
                });
            });
            group.finish();
            drop(durable);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    // The end-to-end counterpart, printed next to the in-process numbers
    // so BENCH_* trajectories capture both sides of the network boundary
    // (full measurement matrix in `fleet_net_throughput`).
    let scenarios = apps::scenarios();
    let mut net =
        dialed_bench::NetFleetBench::new(&scenarios[0], InstrumentMode::Full, FLEET_SIZE, 2);
    let per_sec = net.sustained_devices_per_sec(std::time::Duration::from_millis(500));
    let stats = net.finish();
    println!(
        "fleet-net: {per_sec:.0} devices/sec end-to-end over TCP loopback \
         ({}, Full, {FLEET_SIZE} devices) [{stats}]",
        scenarios[0].name,
    );

    // Process-wide because worker CPUs (and their block caches) are
    // transient; the counters aggregate every emulation this run.
    let sb = msp430::process_superblock_stats();
    println!(
        "fleet: superblocks {} hits / {} misses / {} restitches",
        sb.hits, sb.misses, sb.restitches,
    );
}

criterion_group!(benches, bench_fleet);
criterion_main!(benches);
