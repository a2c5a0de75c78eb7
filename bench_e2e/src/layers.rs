//! Replicas: the harness re-running one layer's public function on a
//! round's own inputs, single-threaded, outside the timed phases. Each is
//! recorded as a replica span under the span that did the work for real,
//! and as a sum the per-layer metrics are computed from.
//!
//! A replica that stops agreeing with the program (a proof the replica
//! verifier no longer accepts) is reported on stderr, not fatal: the time
//! of the call is still the time of the call.

use crate::measure::Recorder;
use crate::population::{ActiveDev, BuiltOp, Setup};
use crate::span::SpanId;
use apex::PoxVerifier;
use dialed::request::{PerDevice, Verifier, VerifyRequest};
use dialed::{DialedDevice, DialedVerifier, EmuWorkspace};
use fleet::wire::{self, Message};
use hacl::{Digest, HmacKey, Sha256};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use vrased::{Challenge, KeyStore, RaVerifier};

/// Proofs re-verified per traced round (spread evenly over the round).
pub const SAMPLE: usize = 96;
/// HMAC passes over the ER-sized buffer per traced round.
const HMAC_PASSES: usize = 32;

/// Accumulator names (see `metrics.rs` for the metrics built on them).
pub mod acc {
    pub const DECODE: &str = "wire.decode";
    pub const ENCODE: &str = "wire.encode";
    pub const FRAME_BYTES: &str = "wire.bytes";
    pub const DIALED_VERIFY: &str = "dialed.verify";
    pub const POX_VERIFY: &str = "apex.pox_verify";
    pub const MAC_CHECK: &str = "vrased.mac_check";
    pub const HMAC: &str = "hacl.hmac";
    pub const EMULATE: &str = "msp430.emulate";
}

/// One sampled submission of a round.
pub struct Sampled<'a> {
    /// Index into the workload's active devices.
    pub dev: usize,
    /// The frame as the device sent it (a `Proof` or a `Submit`).
    pub frame: &'a [u8],
    pub challenge: Challenge,
}

/// The span ids replicas hang under (zero: no parent).
#[derive(Clone, Copy, Default)]
pub struct Parents {
    pub prove: SpanId,
    pub submit: SpanId,
    pub drain: SpanId,
}

struct AppReplica {
    /// Full data-flow verifier; `None` for operations built without the
    /// DIALED instrumentation (the fleet verifies those at the PoX level).
    dialed: Option<DialedVerifier>,
    pox: PoxVerifier,
    er_digest: Digest,
    regions: [(u16, u16); 2],
    extra: [u8; 11],
    /// A device of this application, re-invoked to time emulation.
    emu: DialedDevice,
}

/// The replica verifiers of a workload: one set per application, one key
/// schedule per active device.
pub struct Replicas {
    apps: Vec<AppReplica>,
    ras: Vec<RaVerifier>,
    ws: EmuWorkspace,
    hmac: HmacKey,
    hmac_buf: Vec<u8>,
}

static WARNED: AtomicBool = AtomicBool::new(false);

fn warn_once(what: &str) {
    if !WARNED.swap(true, Ordering::Relaxed) {
        eprintln!("e2e: replica disagrees with the program ({what}); its timing is still reported");
    }
}

impl Replicas {
    /// Replicas for the operations of `setup`, keyed as its fleet keys `devs`.
    pub fn new(setup: &Setup, devs: &[ActiveDev]) -> Self {
        let placeholder = KeyStore::from_seed(0);
        let apps: Vec<AppReplica> = setup
            .ops
            .iter()
            .map(|b| {
                let cfg = b.op.pox;
                let dialed =
                    (b.op.options.mode == dialed::pipeline::InstrumentMode::Full).then(|| {
                        (b.scenario.policies)().into_iter().fold(
                            DialedVerifier::new(b.op.clone(), placeholder.clone()),
                            DialedVerifier::with_policy,
                        )
                    });
                let mut extra = [0u8; 11];
                extra[..10].copy_from_slice(&cfg.to_metadata_bytes());
                extra[10] = 1; // EXEC set, as an accepted proof binds it
                AppReplica {
                    dialed,
                    pox: PoxVerifier::new(placeholder.clone(), cfg, b.op.er_bytes.clone()),
                    er_digest: Sha256::digest(&b.op.er_bytes),
                    regions: [(cfg.er_min, cfg.er_max), (cfg.or_min, cfg.or_max)],
                    extra,
                    emu: DialedDevice::new(b.op.clone(), placeholder.clone()),
                }
            })
            .collect();
        let er_max = setup.ops.iter().map(|b| b.op.er_bytes.len()).max().unwrap_or(0);
        let keys = |d: &ActiveDev| setup.fleet.device_keystore(d.id).expect("device is registered");
        Self {
            apps,
            ras: devs.iter().map(|d| RaVerifier::new(keys(d))).collect(),
            ws: EmuWorkspace::new(),
            hmac: HmacKey::new(&[0x5A; 32]),
            hmac_buf: (0..er_max).map(|i| i as u8).collect(),
        }
    }

    /// Runs every replica over `sample` and the per-round ones once.
    pub fn run(
        &mut self,
        rec: &mut Recorder,
        round: u32,
        parents: Parents,
        ops: &[BuiltOp],
        devs: &[ActiveDev],
        sample: &[Sampled<'_>],
    ) {
        let mut t = Totals::default();
        for s in sample {
            let app = &self.apps[devs[s.dev].app];
            let ra = &self.ras[s.dev];

            let a = Instant::now();
            let msg = wire::decode(s.frame);
            t.decode += a.elapsed();
            let Ok(msg) = msg else {
                warn_once("wire::decode refused a frame the server accepted");
                continue;
            };
            let a = Instant::now();
            let again = wire::encode(&msg);
            t.encode += a.elapsed();
            t.bytes += again.len();
            let (Message::Proof(body) | Message::Submit(fleet::SubmitMsg { body, .. })) = msg
            else {
                continue;
            };
            let proof = body.proof;

            if let Some(verifier) = &app.dialed {
                let keys = PerDevice::new(|_| Some(ra));
                let req =
                    VerifyRequest::new(&proof, &s.challenge).for_device(body.device).keys(&keys);
                let a = Instant::now();
                let report = verifier.verify_in(&mut self.ws, &req);
                t.dialed += a.elapsed();
                t.dialed_n += 1;
                if !report.is_clean() {
                    warn_once("DialedVerifier::verify");
                }
            }

            let a = Instant::now();
            let ok = app.pox.check(&proof.pox, &s.challenge, Some(ra)).is_ok();
            t.pox += a.elapsed();
            if !ok {
                warn_once("PoxVerifier::check");
            }

            let or_digest = Sha256::digest(&proof.pox.or_data);
            let regions = [
                (app.regions[0].0, app.regions[0].1, &app.er_digest),
                (app.regions[1].0, app.regions[1].1, &or_digest),
            ];
            let a = Instant::now();
            let ok = ra.check_region_digests(&s.challenge, &regions, &app.extra, &proof.pox.tag);
            t.mac += a.elapsed();
            if !ok {
                warn_once("RaVerifier::check_region_digests");
            }
            t.n += 1;
        }

        // Per round: HMAC over an ER-sized buffer, and one emulation of
        // each operation (the step count is exact).
        let a = Instant::now();
        for _ in 0..HMAC_PASSES {
            std::hint::black_box(self.hmac.mac(std::hint::black_box(&self.hmac_buf)));
        }
        let hmac = a.elapsed();
        let (mut emu, mut steps) = (Duration::ZERO, 0usize);
        for (app, built) in self.apps.iter_mut().zip(ops) {
            (built.scenario.feed)(app.emu.platform_mut());
            let a = Instant::now();
            let info = app.emu.invoke(&built.scenario.args);
            emu += a.elapsed();
            steps += info.insns;
        }

        let now = Instant::now();
        if let Some(tr) = rec.tracer.as_mut() {
            // Replica spans are laid end to end before `now`; only their
            // durations and parents carry meaning.
            let mut put = |parent: SpanId, name: &'static str, d: Duration| {
                tr.replica(parent, round, name, now - d, now)
            };
            put(parents.submit, acc::DECODE, t.decode);
            put(parents.prove, acc::ENCODE, t.encode);
            let pox_parent = if t.dialed_n > 0 {
                let verify = put(parents.drain, acc::DIALED_VERIFY, t.dialed);
                put(verify, acc::EMULATE, emu);
                verify
            } else {
                parents.drain
            };
            let pox = put(pox_parent, acc::POX_VERIFY, t.pox);
            let mac = put(pox, acc::MAC_CHECK, t.mac);
            put(mac, acc::HMAC, hmac);
        }
        rec.add_time(acc::DECODE, t.decode, t.n);
        rec.add_time(acc::ENCODE, t.encode, t.n);
        rec.add(acc::FRAME_BYTES, t.bytes as f64, t.n as f64);
        rec.add_time(acc::DIALED_VERIFY, t.dialed, t.dialed_n);
        rec.add_time(acc::POX_VERIFY, t.pox, t.n);
        rec.add_time(acc::MAC_CHECK, t.mac, t.n);
        rec.add(acc::HMAC, hmac.as_secs_f64(), (HMAC_PASSES * self.hmac_buf.len()) as f64);
        rec.add(acc::EMULATE, emu.as_secs_f64(), steps as f64);
    }
}

#[derive(Default)]
struct Totals {
    n: usize,
    decode: Duration,
    encode: Duration,
    bytes: usize,
    dialed: Duration,
    dialed_n: usize,
    pox: Duration,
    mac: Duration,
}

/// `count` indices spread evenly over `0..len`.
pub fn sample_indices(len: usize, count: usize) -> impl Iterator<Item = usize> {
    let count = count.min(len);
    (0..count).map(move |k| k * len / count.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_are_spread_and_distinct() {
        let v: Vec<usize> = sample_indices(768, 96).collect();
        assert_eq!(v.len(), 96);
        assert_eq!((v[0], v[1], v[95]), (0, 8, 760));
        assert_eq!(sample_indices(5, 96).collect::<Vec<_>>(), vec![0, 1, 2, 3, 4]);
        assert_eq!(sample_indices(0, 96).count(), 0);
    }
}
