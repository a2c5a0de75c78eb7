//! The firmware-lifecycle simulator: drives a device through realistic
//! duty cycles over the real emulated stack.
//!
//! One [`DeviceSim`] owns a [`DialedDevice`] flashed with an evaluation
//! app and walks it through the cycle a deployed device lives:
//!
//! ```text
//! round n:  config update → sensor stimulus → invoke op → attest
//! ...
//! round k:  OTA reboot into the V2 image (fresh DialedDevice, same key)
//! round k+1: duty cycles continue on V2
//! ```
//!
//! Every round produces a proof answering a caller-supplied challenge;
//! the honest-lifecycle invariant — the whole point of this layer — is
//! that *every* such proof verifies Clean against the image in effect,
//! under every verifier dispatch configuration. The mutation engine
//! ([`crate::mutate`]) then starts from these honest rounds.

use apex::pox::StopReason;
use apps::lifecycle::LifecycleSpec;
use dialed::attest::{DialedDevice, DialedProof, RunInfo};
use dialed::pipeline::{InstrumentMode, InstrumentedOp};
use vrased::{Challenge, KeyStore};

/// Everything one duty cycle leaves behind.
pub struct RoundArtifacts {
    /// Zero-based round index.
    pub round: usize,
    /// The attestation response for this round.
    pub proof: DialedProof,
    /// Device-side run statistics.
    pub run: RunInfo,
    /// The firmware image that was in effect (what an up-to-date verifier
    /// must check against).
    pub op: InstrumentedOp,
    /// The config word applied this round, if the app has a config global.
    pub config: Option<(u16, u16)>,
}

/// A simulated device living through firmware duty cycles.
pub struct DeviceSim {
    spec: LifecycleSpec,
    v1: InstrumentedOp,
    v2: InstrumentedOp,
    keystore: KeyStore,
    device: DialedDevice,
    round: usize,
    on_v2: bool,
}

impl DeviceSim {
    /// Boots a device on the spec's V1 image with `keystore` provisioned.
    #[must_use]
    pub fn new(spec: LifecycleSpec, keystore: KeyStore) -> Self {
        let v1 = spec.scenario.build(InstrumentMode::Full);
        let v2 = spec.build_v2(InstrumentMode::Full);
        let device = DialedDevice::new(v1.clone(), keystore.clone());
        Self { spec, v1, v2, keystore, device, round: 0, on_v2: false }
    }

    /// The lifecycle spec driving this device.
    #[must_use]
    pub fn spec(&self) -> &LifecycleSpec {
        &self.spec
    }

    /// The firmware image currently flashed.
    #[must_use]
    pub fn current_op(&self) -> &InstrumentedOp {
        if self.on_v2 {
            &self.v2
        } else {
            &self.v1
        }
    }

    /// The V1 (factory) image.
    #[must_use]
    pub fn v1(&self) -> &InstrumentedOp {
        &self.v1
    }

    /// The V2 (post-OTA) image.
    #[must_use]
    pub fn v2(&self) -> &InstrumentedOp {
        &self.v2
    }

    /// OTA update: reboot into the V2 image. The attestation key survives
    /// the reflash (it lives in ROM per the VRASED model); RAM does not.
    pub fn flash_v2(&mut self) {
        self.device = DialedDevice::new(self.v2.clone(), self.keystore.clone());
        self.on_v2 = true;
    }

    /// Runs one duty cycle — config update, stimulus, operation, proof —
    /// and answers `challenge`.
    ///
    /// # Panics
    ///
    /// Panics if the operation fails to run to completion; an honest
    /// lifecycle never exhausts its step budget.
    pub fn duty_cycle(&mut self, challenge: &Challenge) -> RoundArtifacts {
        let round = self.round;
        self.round += 1;
        // Management-plane config update: device software writes the new
        // word into its data global between operations.
        let config = self.spec.config_for(round);
        if let Some((addr, value)) = config {
            self.device.platform_mut().load_words(addr, &[value]);
        }
        // Sensor / peripheral stimulus for this round.
        (self.spec.stimulus(round))(self.device.platform_mut());
        let args = self.spec.scenario.args;
        let run = self.device.invoke(&args);
        assert_eq!(
            run.stop,
            StopReason::ReachedStop,
            "{} round {round}: honest duty cycle did not complete",
            self.spec.scenario.name,
        );
        RoundArtifacts {
            round,
            proof: self.device.prove(challenge),
            run,
            op: self.current_op().clone(),
            config,
        }
    }
}
