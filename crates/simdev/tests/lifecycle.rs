//! The honest-lifecycle invariant: every proof an honest device produces
//! over its whole firmware lifecycle — config updates, fresh stimulus
//! each round, an OTA reboot into V2 — verifies `Clean` against the
//! image in effect, under every verifier dispatch configuration. And the
//! one dishonest lifecycle shape that needs the lifecycle layer to
//! express: a device that *skipped* the OTA answering a verifier that
//! rolled forward must die as a MAC mismatch.

use apps::lifecycle::lifecycles;
use dialed::report::{Finding, RejectClass, Verdict};
use dialed::{DialedVerifier, EmuWorkspace, Verifier, VerifyRequest};
use msp430::Dispatch;
use simdev::{DeviceSim, RoundArtifacts};
use vrased::{Challenge, KeyStore};

/// The two dispatches the emulator supports: the plain-decode reference
/// and superblock block-at-a-time.
const DISPATCHES: [Dispatch; 2] = [Dispatch::Reference, Dispatch::Superblocks];

/// Rounds run on the factory (V1) image before the OTA.
const PRE_OTA_ROUNDS: usize = 3;
/// Rounds run on the V2 image after the OTA.
const POST_OTA_ROUNDS: usize = 2;

fn round_challenge(scenario: &str, round: usize) -> Challenge {
    Challenge::derive(scenario.as_bytes(), round as u64)
}

#[test]
fn honest_lifecycles_verify_clean_under_every_dispatch() {
    for (i, spec) in lifecycles().into_iter().enumerate() {
        let name = spec.scenario.name;
        let keystore = KeyStore::from_seed(0x51D0_0000 + i as u64);
        let mut sim = DeviceSim::new(spec, keystore.clone());

        let mut rounds: Vec<RoundArtifacts> = Vec::new();
        for r in 0..PRE_OTA_ROUNDS {
            rounds.push(sim.duty_cycle(&round_challenge(name, r)));
        }
        sim.flash_v2();
        for r in PRE_OTA_ROUNDS..PRE_OTA_ROUNDS + POST_OTA_ROUNDS {
            rounds.push(sim.duty_cycle(&round_challenge(name, r)));
        }

        for art in &rounds {
            // Verify against the image that was in effect for that round
            // (the artifact records it), under both dispatches.
            let verifier = DialedVerifier::new(art.op.clone(), keystore.clone());
            let challenge = round_challenge(name, art.round);
            let mut verdicts = Vec::new();
            for dispatch in DISPATCHES {
                let mut ws = EmuWorkspace::new();
                ws.set_dispatch(dispatch);
                let report =
                    verifier.verify_in(&mut ws, &VerifyRequest::new(&art.proof, &challenge));
                assert_eq!(
                    report.verdict,
                    Verdict::Clean,
                    "{name} round {} ({dispatch:?}): {report}",
                    art.round,
                );
                verdicts.push(report.verdict);
            }
            assert!(verdicts.windows(2).all(|w| w[0] == w[1]));
        }
    }
}

#[test]
fn proofs_do_not_transfer_across_rounds() {
    // Each round's proof answers that round's challenge and no other —
    // the freshness property the per-round challenges exist for.
    for (i, spec) in lifecycles().into_iter().enumerate() {
        let name = spec.scenario.name;
        let keystore = KeyStore::from_seed(0x51D0_1000 + i as u64);
        let mut sim = DeviceSim::new(spec, keystore.clone());
        let art = sim.duty_cycle(&round_challenge(name, 0));

        let verifier = DialedVerifier::new(art.op.clone(), keystore.clone());
        let wrong = round_challenge(name, 1);
        let report = verifier.verify(&VerifyRequest::new(&art.proof, &wrong));
        assert_eq!(report.verdict, Verdict::Rejected, "{name}: {report}");
        assert_eq!(reject_class(&report), Some(RejectClass::Mac), "{name}: {report}");
    }
}

#[test]
fn stale_device_after_ota_rollout_is_rejected() {
    // The fleet rolled everyone forward to V2, but this device never took
    // the update: it answers honestly, on real hardware, with the real
    // key — just against the wrong image. The code-region MAC must kill
    // it before any data-flow reasoning.
    for (i, spec) in lifecycles().into_iter().enumerate() {
        let name = spec.scenario.name;
        let keystore = KeyStore::from_seed(0x51D0_2000 + i as u64);
        let mut stale = DeviceSim::new(spec, keystore.clone());
        let challenge = round_challenge(name, 0);
        let art = stale.duty_cycle(&challenge);

        let rolled_forward = DialedVerifier::new(stale.v2().clone(), keystore.clone());
        for dispatch in DISPATCHES {
            let mut ws = EmuWorkspace::new();
            ws.set_dispatch(dispatch);
            let report =
                rolled_forward.verify_in(&mut ws, &VerifyRequest::new(&art.proof, &challenge));
            assert_eq!(report.verdict, Verdict::Rejected, "{name} ({dispatch:?}): {report}",);
            assert_eq!(
                reject_class(&report),
                Some(RejectClass::Mac),
                "{name} ({dispatch:?}): {report}",
            );
        }
    }
}

fn reject_class(report: &dialed::report::Report) -> Option<RejectClass> {
    report.findings.iter().find_map(|f| match f {
        Finding::PoxRejected { reason } => Some(reason.class()),
        _ => None,
    })
}
