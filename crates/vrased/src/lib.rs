//! VRASED-style static remote attestation substrate.
//!
//! VRASED (USENIX Security'19) is a formally verified hardware/software
//! co-design for remote attestation on the MSP430: a symmetric key in ROM
//! readable only by an atomic, ROM-resident software routine (`SW-Att`)
//! computes `HMAC(K, challenge ‖ attested memory)`, and a small hardware
//! monitor enforces key isolation and atomicity. APEX builds its
//! proof-of-execution on top of it, and DIALED inherits the whole stack.
//!
//! # Substitution note (see DESIGN.md)
//!
//! We do not simulate the ~4k-cycle SW-Att routine instruction by
//! instruction. [`swatt::SwAtt`] is an *atomic device service* with the same
//! interface and the same access rules, enforced here:
//!
//! * the key lives in [`keystore::KeyStore`], outside the CPU-addressable
//!   address space — software cannot read it by construction, mirroring
//!   VRASED's hardware rule that any CPU/DMA access to key memory resets the
//!   device;
//! * [`rules::VrasedRules`] is the residual hardware monitor: it watches the
//!   bus for accesses to the reserved attestation scratch region, the analog
//!   of VRASED's `DMA_(K)`/`AC(K)` properties;
//! * attestation reads memory via side-effect-free `peek`s, like the real
//!   SW-Att reading memory-bus snapshots.
//!
//! DIALED's security argument consumes only the *interface*: an unforgeable
//! MAC over prover-chosen memory, with a verifier-chosen challenge.
//!
//! # Example
//!
//! ```
//! use vrased::{keystore::KeyStore, protocol::{Challenge, RaVerifier}, swatt::SwAtt};
//! use msp430::platform::Platform;
//!
//! let ks = KeyStore::from_seed(7);
//! let device = SwAtt::new(ks.clone());
//! let verifier = RaVerifier::new(ks);
//!
//! let mut platform = Platform::new();
//! platform.load_words(0xE000, &[0x4303]); // the "firmware"
//!
//! let chal = Challenge::derive(b"session", 1);
//! let report = device.attest(&platform, &chal, &[(0xE000, 0xE001)]);
//! let mut expected = Platform::new();
//! expected.load_words(0xE000, &[0x4303]);
//! assert!(verifier.check(&expected, &chal, &[(0xE000, 0xE001)], &report));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod keystore;
pub mod protocol;
pub mod rules;
pub mod swatt;

pub use keystore::KeyStore;
pub use protocol::{Challenge, RaVerifier};
pub use swatt::SwAtt;
