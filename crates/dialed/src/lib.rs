//! DIALED: Data Integrity Attestation for Low-end Embedded Devices
//! (DAC 2021) — reference reproduction.
//!
//! DIALED is the first *data-flow attestation* (DFA) scheme for the
//! lowest-end MCUs. Composed with Tiny-CFA (control-flow attestation) over
//! the APEX proof-of-execution architecture, it lets a verifier detect
//! **all** known classes of runtime software exploits — code modification,
//! control-flow hijacks, and data-only attacks — on devices as small as a
//! TI MSP430.
//!
//! # How it works
//!
//! The attested *embedded operation* is instrumented twice:
//!
//! * **Tiny-CFA** logs the destination of every control-flow transfer into
//!   the APEX Output Range (CF-Log);
//! * **DIALED** ([`pass`]) additionally logs every *data input* — any value
//!   read from outside the operation's own stack (Definition 1 of the
//!   paper): operation arguments at entry (feature F3) and runtime inputs
//!   from peripherals/globals/network (feature F4) — into the same
//!   downward-growing log stack (I-Log, feature F5).
//!
//! APEX proves that exactly this instrumented code ran start-to-finish and
//! produced exactly this OR content. The verifier ([`verifier`]) then
//! *abstractly executes* the instrumented program, injecting the logged
//! inputs at the recorded log sites, and
//!
//! 1. recomputes the entire OR and compares it with the attested one (any
//!    divergence of device behaviour from the logs is an attack);
//! 2. maintains a shadow call stack over the reconstructed execution
//!    (control-flow hijacks like the paper's Fig. 1 reproduce and are
//!    flagged);
//! 3. evaluates application [`policy`] predicates on the reconstruction's
//!    data writes (data-only attacks like the paper's Fig. 2 reproduce and
//!    are flagged — no code annotations needed).
//!
//! # Verification API
//!
//! All verification flows through one request-based entry point (the
//! [`request`] module): build a [`VerifyRequest`], hand it to anything
//! implementing [`Verifier`] — [`DialedVerifier`] for full data-flow
//! verification, [`apex::PoxVerifier`] for PoX-only. A caller verifying
//! many proofs keeps one [`EmuWorkspace`] and passes it to every
//! [`Verifier::verify_in`] call, so the emulation buffers stay warm.
//! Per-device keys come from a [`KeySource`]; rejections carry a
//! structured [`RejectReason`].
//!
//! # End-to-end example
//!
//! See `examples/quickstart.rs`; the short version:
//!
//! ```
//! use dialed::prelude::*;
//!
//! let source = "\
//!     .org 0xE000\n\
//! op:\n sub #2, r1\n mov r15, 0(r1)\n mov &0x0020, r14\n add #2, r1\n ret\n";
//! let op = InstrumentedOp::build(source, "op", &BuildOptions::default())?;
//! let mut device = DialedDevice::new(op.clone(), KeyStore::from_seed(1));
//! device.platform_mut().gpio.p1.input = 0x42;
//! let run = device.invoke(&[0, 0, 0, 0, 0, 0, 0, 7]);
//! let proof = device.prove(&Challenge::derive(b"doc", 0));
//!
//! let verifier = DialedVerifier::new(op, KeyStore::from_seed(1));
//! let challenge = Challenge::derive(b"doc", 0);
//! let report = verifier.verify(&VerifyRequest::new(&proof, &challenge));
//! assert!(report.is_clean(), "{report}");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attest;
pub mod ilog;
pub mod pass;
pub mod pipeline;
pub mod policy;
pub mod report;
pub mod request;
pub mod verifier;

pub use attest::{DialedDevice, DialedProof, RunInfo};
pub use pass::{DfaConfig, ReadCheckPolicy};
pub use pipeline::{BuildOptions, InstrumentedOp};
pub use report::{Finding, RejectClass, RejectReason, Report, Verdict};
pub use request::{KeySource, PerDevice, StaticKeys, Verifier, VerifyRequest};
pub use verifier::{DialedVerifier, EmuWorkspace, SlotClass};

/// Convenient re-exports for end-to-end users.
pub mod prelude {
    pub use crate::attest::{DialedDevice, DialedProof};
    pub use crate::pipeline::{BuildOptions, InstrumentedOp};
    pub use crate::policy::{ActuationPulse, GlobalWriteBounds, Policy};
    pub use crate::report::{Finding, RejectClass, RejectReason, Report, Verdict};
    pub use crate::request::{KeySource, PerDevice, StaticKeys, Verifier, VerifyRequest};
    pub use crate::verifier::{DialedVerifier, EmuWorkspace};
    pub use vrased::{Challenge, KeyStore};
}
