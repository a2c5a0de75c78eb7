//! Clean-room cryptographic primitives for the DIALED reproduction.
//!
//! The DIALED stack (VRASED → APEX → Tiny-CFA → DIALED) roots all of its
//! guarantees in an HMAC-SHA-256 computed by VRASED's `SW-Att` routine over
//! attested memory. The offline dependency set for this reproduction contains
//! no cryptography crate, so this crate provides:
//!
//! * [`sha256`] — FIPS 180-4 SHA-256 (one-shot and incremental) on a
//!   runtime-selected [`Kernel`]: the x86-64 SHA extensions where present,
//!   portable scalar rounds otherwise (and under `HACL_FORCE_SCALAR`), plus
//!   [`Sha256::digest_public`], which skips a public input's leading zero
//!   blocks,
//! * [`hmac`] — RFC 2104 HMAC-SHA-256,
//! * [`constant_time`] — constant-time comparison used by verifiers.
//!
//! # Scope
//!
//! This is a faithful, well-tested implementation (NIST CAVP and RFC 4231
//! vectors are in the test suite), but it has not been audited or hardened
//! against side channels beyond constant-time tag comparison. It exists to
//! make the reproduction self-contained, not to be production crypto.
//!
//! # Examples
//!
//! ```
//! use hacl::{sha256::Sha256, hmac::HmacSha256};
//!
//! let digest = Sha256::digest(b"abc");
//! assert_eq!(digest[0], 0xba);
//!
//! let tag = HmacSha256::mac(b"key", b"message");
//! assert_eq!(tag.len(), 32);
//! ```

// `deny` (not `forbid`) so the SHA-NI kernel can scope one `allow` around
// its runtime-feature-guarded `target_feature` call.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod constant_time;
pub mod hmac;
pub mod sha256;
mod shani;

pub use hmac::{HmacKey, HmacSha256};
pub use sha256::{Kernel, Sha256};

/// Length in bytes of a SHA-256 digest (and therefore of an HMAC-SHA-256 tag).
pub const DIGEST_LEN: usize = 32;

/// A 256-bit digest or MAC tag.
pub type Digest = [u8; DIGEST_LEN];
