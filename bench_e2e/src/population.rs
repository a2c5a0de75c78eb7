//! The registered population and the fleets it lives in.
//!
//! Every workload registers the three paper applications
//! (`apps::scenarios()`) and [`Scale::per_app`] devices for each, which is
//! what one *set-up* costs a user: build the three operations, construct
//! (or recover) the fleet, register operations and devices. A small
//! *active* subset — the first [`Scale::active`] devices of each
//! application — has a [`DialedDevice`] simulator and attests.

use crate::seed;
use apps::Scenario;
use dialed::pipeline::{InstrumentMode, InstrumentedOp};
use dialed::DialedDevice;
use fleet::{CatalogFn, DeviceId, Fleet, FleetConfig, OpId};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Population sizes of a run.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Registered devices per application.
    pub per_app: usize,
    /// Of those, devices that attest, per application.
    pub active: [usize; 3],
}

impl Scale {
    /// `total` active devices dealt over the three applications as evenly
    /// as they divide.
    pub fn with_active(per_app: usize, total: usize) -> Self {
        Self { per_app, active: std::array::from_fn(|app| (total + 2 - app) / 3) }
    }

    pub fn active_total(&self) -> usize {
        self.active.iter().sum()
    }
}

/// One paper application, built in the workload's instrumentation mode.
pub struct BuiltOp {
    pub scenario: Scenario,
    pub op: InstrumentedOp,
}

/// Builds the three operations (assemble + instrument). Part of set-up.
pub fn build_ops(mode: InstrumentMode) -> Vec<BuiltOp> {
    apps::scenarios()
        .into_iter()
        .map(|scenario| {
            let op = scenario.build(mode);
            BuiltOp { scenario, op }
        })
        .collect()
}

/// The fleet tunables every workload uses: what users get.
///
/// `challenge_ttl` keeps its default too. Resolved sessions are pruned
/// only once their deadline has passed, so a raised TTL would make the
/// session store — which every drain scans — grow for the whole run.
/// Logical expiry still never fires: every issued session is submitted
/// within its round, far inside the default deadline.
pub fn fleet_config() -> FleetConfig {
    FleetConfig::default()
}

/// Devices registered per timed part of a set-up.
pub const REGISTER_CHUNK: usize = 1024;

/// How a fleet came to be, with the timings a set-up sample reports.
pub struct Setup {
    pub fleet: Fleet,
    pub ops: Vec<BuiltOp>,
    /// The set-up as consecutive timed parts: building the operations and
    /// constructing the fleet, then the `register_device` loop in chunks of
    /// [`REGISTER_CHUNK`] (or, recovered: building the operations, then
    /// `Fleet::recover`). Parts are what `setup_s` takes its per-part
    /// minima over, so one workload always produces the same number of them.
    pub parts: Vec<Duration>,
    /// The `register_device` loop alone (zero when recovered).
    pub register: Duration,
    /// `Fleet::recover` alone (zero when built fresh).
    pub recover: Duration,
}

/// Where a fresh fleet keeps its state.
pub enum Backing<'a> {
    Memory,
    /// A durable fleet on a fresh directory (removed first if present).
    Durable(&'a Path),
}

/// Set-up from nothing: build the operations, construct the fleet, register
/// the operations and `3 × per_app` devices.
pub fn fresh(mode: InstrumentMode, scale: Scale, run_seed: u64, backing: Backing<'_>) -> Setup {
    let t0 = Instant::now();
    let ops = build_ops(mode);
    let mut fleet = match backing {
        Backing::Memory => Fleet::new(fleet_config()),
        Backing::Durable(dir) => {
            let _ = std::fs::remove_dir_all(dir);
            Fleet::durable(dir, fleet_config()).expect("state directory is writable")
        }
    };
    let op_ids: Vec<OpId> = ops
        .iter()
        .map(|b| fleet.register_op(b.scenario.name, b.op.clone(), (b.scenario.policies)()))
        .collect();
    let mut parts = vec![t0.elapsed()];
    for (app, &op) in op_ids.iter().enumerate() {
        for chunk in (0..scale.per_app).step_by(REGISTER_CHUNK) {
            let t = Instant::now();
            for i in chunk..(chunk + REGISTER_CHUNK).min(scale.per_app) {
                let id = fleet
                    .register_device(op, seed::key_seed(run_seed, app, i))
                    .expect("operation was just registered");
                debug_assert_eq!(id, device_id(scale, app, i));
            }
            parts.push(t.elapsed());
        }
    }
    let register = parts[1..].iter().sum();
    Setup { fleet, ops, parts, register, recover: Duration::ZERO }
}

/// Set-up by restart: rebuild the operations through the catalog and
/// recover the whole population from `dir`.
pub fn recovered(mode: InstrumentMode, dir: &Path) -> Setup {
    let t0 = Instant::now();
    let ops = build_ops(mode);
    let catalog = CatalogFn(|name: &str| {
        ops.iter()
            .find(|b| b.scenario.name == name)
            .map(|b| (b.op.clone(), (b.scenario.policies)()))
    });
    let build = t0.elapsed();
    let t1 = Instant::now();
    let fleet = Fleet::recover(dir, fleet_config(), &catalog).expect("state directory recovers");
    let recover = t1.elapsed();
    Setup { fleet, ops, parts: vec![build, recover], register: Duration::ZERO, recover }
}

/// The id the `index`-th device of application `app` gets: devices are
/// registered application by application on a fresh fleet, and ids count up
/// from zero.
pub fn device_id(scale: Scale, app: usize, index: usize) -> DeviceId {
    DeviceId((app * scale.per_app + index) as u64)
}

/// An attesting device: its fleet id, its application, and the simulated
/// MCU that has run the operation once and proves on demand.
pub struct ActiveDev {
    pub id: DeviceId,
    pub app: usize,
    pub sim: DialedDevice,
}

/// Boots the active subset: each simulator is provisioned with the key the
/// fleet holds for it, fed the scenario's nominal stimuli, and invoked once.
pub fn boot_active(setup: &Setup, scale: Scale) -> Vec<ActiveDev> {
    let mut devs = Vec::with_capacity(scale.active_total());
    for (app, built) in setup.ops.iter().enumerate() {
        for i in 0..scale.active[app] {
            let id = device_id(scale, app, i);
            let key = setup.fleet.device_keystore(id).expect("device is registered");
            let mut sim = DialedDevice::new(built.op.clone(), key);
            (built.scenario.feed)(sim.platform_mut());
            let info = sim.invoke(&built.scenario.args);
            assert_eq!(
                info.stop,
                apex::pox::StopReason::ReachedStop,
                "{} must run to completion",
                built.scenario.name
            );
            devs.push(ActiveDev { id, app, sim });
        }
    }
    devs
}

/// Max ÷ mean of active devices per shard: the slowest shard sets the drain
/// time, so this bounds how far a drain is from evenly spread.
pub fn shard_imbalance(fleet: &Fleet, devs: &[ActiveDev]) -> f64 {
    let shards = fleet.shards();
    let mut counts = vec![0usize; shards.len()];
    for d in devs {
        if let Some(i) = shards.iter().position(|s| s.registry().device(d.id).is_ok()) {
            counts[i] += 1;
        }
    }
    let max = counts.iter().copied().max().unwrap_or(0) as f64;
    let mean = devs.len() as f64 / shards.len().max(1) as f64;
    if mean > 0.0 {
        max / mean
    } else {
        0.0
    }
}

/// The directory a run may write in: `<target dir>/e2e/<workload>-<pid>`.
/// The target directory is Cargo's (`CARGO_TARGET_DIR`, as the benchmark
/// driver sets it) or this package's own `target/`, both inside the
/// checkout.
pub fn work_dir(workload: &str) -> PathBuf {
    out_dir().join(format!("{workload}-{}", std::process::id()))
}

/// `<target dir>/e2e`, where traces and result files go.
pub fn out_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("target"), PathBuf::from);
    target.join("e2e")
}

/// Recursive directory copy (state directories are two levels deep).
pub fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let dest = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &dest)?;
        } else {
            std::fs::copy(entry.path(), dest)?;
        }
    }
    Ok(())
}
