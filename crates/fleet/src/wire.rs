//! The fleet wire format: a hand-rolled, versioned, length-prefixed binary
//! codec for every message the attestation service exchanges.
//!
//! Layout of a frame (all integers little-endian):
//!
//! | offset | size | field |
//! |---|---|---|
//! | 0 | 2 | magic `b"DW"` |
//! | 2 | 1 | version (currently [`WIRE_VERSION`]) |
//! | 3 | 1 | message type tag |
//! | 4 | 4 | payload length `n` |
//! | 8 | `n` | payload |
//!
//! A proof body (inside `Proof` and `Submit` frames) is:
//!
//! | size | field |
//! |---|---|
//! | 10 | region metadata (`er_min, er_max, er_exit, or_min, or_max`) |
//! | 1 | `EXEC` flag (0 or 1) |
//! | 4 | OR length `len` (at most [`MAX_OR_LEN`]) |
//! | 4 | zero prefix `z` (`z <= len`) |
//! | `len - z` | OR tail: bytes `z..len`; its first byte is non-zero |
//! | 32 | MAC tag |
//!
//! The output region is a log filled downward from `or_max`, so its
//! unwritten low end is zero and travels as a count, not as bytes. The
//! encoding is canonical: `z` is the whole leading zero run, so a tail
//! starting with 0 is refused and `encode(decode(b)) == b` for every
//! accepted `b`. The service holds a submitted proof in this form too (the
//! crate-private `PackedProof`, whose codec is the one definition of the
//! layout): `Fleet::submit_wire` decodes a `Proof` frame straight into it,
//! as [`crate::net`]'s readers do each `Submit` frame, and a shard expands
//! the zero run only while it verifies the proof, into one buffer every
//! proof of its drain reuses.
//!
//! Each encoded type states its layout once, in one `codec!` table entry
//! (a struct's fields in wire order, or an enum's tag bytes and each
//! variant's fields) that generates both its encoder and its decoder.
//! Types with a check or a layout of their own (integers, strings, counted
//! lists, region metadata, the proof body) implement the crate-private
//! `Codec` trait by hand.
//!
//! Every decode path is **total**: malformed, truncated, corrupted or
//! hostile input yields a [`WireError`], never a panic, and no length
//! field can drive an allocation larger than the input plus
//! [`MAX_OR_LEN`] per proof (a zero prefix expands when [`decode`] builds
//! a [`DialedProof`]; the packed form never expands it). Decoding
//! also re-validates embedded [`PoxConfig`] bounds, so a region that the
//! verifier would crash on (e.g. an even `or_max`) is rejected at the
//! wire boundary.

use apex::{PoxConfig, PoxProof};
use dialed::attest::DialedProof;
use dialed::report::{Finding, RejectReason, Report, Verdict, VerifyStats};
use hacl::{Digest, DIGEST_LEN};
use std::fmt;
use vrased::Challenge;

/// Current codec version, bumped on any incompatible layout change.
/// Version 2 replaced the free-form rejection string with the structured
/// [`RejectReason`] encoding; version 3 added the request-correlated
/// networking envelope ([`IssueMsg`], [`GrantMsg`], [`SubmitMsg`],
/// [`VerdictMsg`], [`RejectMsg`]) and the
/// [`Overloaded`](RejectReason::Overloaded) backpressure reason; version 4
/// sends a proof's output region as a zero-prefix count plus its tail.
pub const WIRE_VERSION: u8 = 4;

/// Longest output region a proof body may announce: the MSP430's whole
/// 64 KiB address space.
pub const MAX_OR_LEN: usize = 1 << 16;

/// Frame magic: "Dialed Wire".
pub const MAGIC: [u8; 2] = *b"DW";

/// Size of the fixed frame header preceding the payload.
pub const HEADER_LEN: usize = 8;

/// Decode failures. Every variant is a graceful error; the decoder never
/// panics on any input.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum WireError {
    /// Input ended before the announced structure was complete.
    Truncated {
        /// Bytes the decoder needed.
        need: usize,
        /// Bytes remaining.
        have: usize,
    },
    /// The first two bytes are not [`MAGIC`].
    BadMagic,
    /// Version byte this decoder does not speak.
    UnsupportedVersion(u8),
    /// Unknown message/variant discriminant.
    UnknownTag {
        /// Which discriminant field was bad.
        what: &'static str,
        /// The offending byte.
        tag: u8,
    },
    /// The frame's payload length disagrees with the bytes supplied.
    LengthMismatch {
        /// Payload length announced by the header.
        announced: usize,
        /// Payload bytes actually present.
        present: usize,
    },
    /// A structure decoded cleanly but left unconsumed payload bytes.
    TrailingBytes(usize),
    /// An embedded string is not valid UTF-8.
    BadUtf8,
    /// A boolean field held something other than 0 or 1.
    BadBool(u8),
    /// Embedded region metadata failed [`PoxConfig`] validation.
    BadConfig(&'static str),
    /// A proof's output-region encoding is out of bounds or not canonical.
    BadOutputRegion(&'static str),
    /// A counted field does not fit this platform's `usize`.
    Overflow(&'static str),
    /// A well-formed frame of the wrong kind arrived where a specific
    /// message was required (e.g. a non-proof frame at the submission
    /// endpoint).
    UnexpectedMessage {
        /// The message kind the endpoint required.
        expected: &'static str,
    },
    /// A frame header announced a payload beyond the receiver's
    /// per-connection cap — the oversized-frame defense of
    /// [`FrameReader`]; the stream is not worth resynchronising.
    FrameTooLarge {
        /// Payload length the header announced.
        announced: usize,
        /// The receiver's configured cap.
        max: usize,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { need, have } => {
                write!(f, "truncated: needed {need} more bytes, had {have}")
            }
            WireError::BadMagic => write!(f, "bad frame magic"),
            WireError::UnsupportedVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::UnknownTag { what, tag } => write!(f, "unknown {what} tag {tag:#04x}"),
            WireError::LengthMismatch { announced, present } => {
                write!(f, "payload length {announced} announced but {present} bytes present")
            }
            WireError::TrailingBytes(n) => write!(f, "{n} trailing payload bytes"),
            WireError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            WireError::BadBool(b) => write!(f, "boolean field holds {b:#04x}"),
            WireError::BadConfig(m) => write!(f, "embedded PoX config invalid: {m}"),
            WireError::BadOutputRegion(m) => write!(f, "output region encoding invalid: {m}"),
            WireError::Overflow(what) => write!(f, "{what} does not fit usize"),
            WireError::UnexpectedMessage { expected } => {
                write!(f, "frame decoded but is not a {expected} message")
            }
            WireError::FrameTooLarge { announced, max } => {
                write!(f, "frame announces {announced} payload bytes, cap is {max}")
            }
        }
    }
}

impl std::error::Error for WireError {}

impl From<WireError> for RejectReason {
    /// Wire failures reject as [`RejectReason::MalformedSubmission`]: the
    /// bytes never decoded into a proof worth spending cryptography on.
    fn from(e: WireError) -> Self {
        RejectReason::MalformedSubmission { detail: e.to_string() }
    }
}

/// A challenge as issued to one device: the session coordinates plus the
/// 256-bit nonce-derived challenge itself.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ChallengeMsg {
    /// Session the device must answer under.
    pub session: u64,
    /// Target device.
    pub device: u64,
    /// The device's monotonic challenge counter for this session.
    pub nonce: u64,
    /// Logical-clock deadline after which the session expires.
    pub deadline: u64,
    /// The attestation challenge.
    pub challenge: Challenge,
}

/// A device's attestation response for one session.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ProofMsg {
    /// Session being answered.
    pub session: u64,
    /// Responding device.
    pub device: u64,
    /// The DIALED proof (APEX PoX carrying CF-Log + I-Log).
    pub proof: DialedProof,
}

/// A per-session verdict pushed back to operators or devices.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ReportMsg {
    /// Session the verdict belongs to.
    pub session: u64,
    /// Device that was verified.
    pub device: u64,
    /// The verifier's full report.
    pub report: Report,
}

/// Client → server: request a fresh attestation challenge for a device.
/// The `request` id is client-chosen and echoed in the reply
/// ([`GrantMsg`] or [`RejectMsg`]), so many devices multiplex over one
/// connection.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct IssueMsg {
    /// Client-chosen correlation id, echoed in the reply.
    pub request: u64,
    /// Device the challenge is requested for.
    pub device: u64,
}

/// Server → client: the challenge granted for an [`IssueMsg`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct GrantMsg {
    /// Correlation id of the issue request being answered.
    pub request: u64,
    /// The issued challenge.
    pub body: ChallengeMsg,
}

/// Client → server: a proof submission. Answered *eventually* by a
/// [`VerdictMsg`] (after the session's batch drains — replies arrive out
/// of submission order) or immediately by a [`RejectMsg`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SubmitMsg {
    /// Client-chosen correlation id, echoed in the eventual reply.
    pub request: u64,
    /// The submission itself.
    pub body: ProofMsg,
}

/// Server → client: the final verdict for a [`SubmitMsg`]. Correlate by
/// `request`, not arrival order: batch drains resolve whole shards at
/// once.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct VerdictMsg {
    /// Correlation id of the submit request being answered.
    pub request: u64,
    /// The session's full report.
    pub body: ReportMsg,
}

/// Server → client: a structured rejection of one request — session
/// violations, undecodable submissions, unknown principals, or explicit
/// [`Overloaded`](RejectReason::Overloaded) backpressure. A `request` of
/// 0 with a protocol-level reason means the rejection is connection-fatal
/// (the server closes after sending it).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RejectMsg {
    /// Correlation id of the rejected request (0 for connection-level
    /// violations that cannot be attributed to one request).
    pub request: u64,
    /// Why the request was refused.
    pub reason: RejectReason,
}

/// Every message the fleet protocol exchanges.
#[derive(Clone, PartialEq, Debug)]
pub enum Message {
    /// Verifier → device: an attestation challenge.
    Challenge(ChallengeMsg),
    /// Device → verifier: the attestation response.
    Proof(ProofMsg),
    /// Verifier → operator/device: one session's verdict.
    Report(ReportMsg),
    /// Client → server: challenge request (networked envelope).
    Issue(IssueMsg),
    /// Server → client: challenge reply (networked envelope).
    Grant(GrantMsg),
    /// Client → server: correlated proof submission (networked envelope).
    Submit(SubmitMsg),
    /// Server → client: correlated final verdict (networked envelope).
    Verdict(VerdictMsg),
    /// Server → client: correlated structured rejection (networked
    /// envelope).
    Reject(RejectMsg),
}

const TAG_CHALLENGE: u8 = 1;
pub(crate) const TAG_PROOF: u8 = 2;
const TAG_REPORT: u8 = 3;
// Tag 4 (a batch summary) is retired and must never be reassigned: a peer
// that still sends it is refused as an unknown tag.
const TAG_ISSUE: u8 = 5;
const TAG_GRANT: u8 = 6;
pub(crate) const TAG_SUBMIT: u8 = 7;
const TAG_VERDICT: u8 = 8;
const TAG_REJECT: u8 = 9;

// ---------------------------------------------------------------------------
// The codec

/// Little-endian byte-string builder shared by the wire codec and the
/// durable store ([`crate::store`]): both speak the same framing dialect.
pub(crate) struct Writer(pub(crate) Vec<u8>);

impl Writer {
    pub(crate) fn bytes(&mut self, v: &[u8]) {
        self.0.extend_from_slice(v);
    }
}

/// Total-decode cursor shared by the wire codec and the durable store —
/// every read is bounds-checked and no announced length can drive an
/// allocation larger than the input itself (a proof's zero prefix, capped
/// at [`MAX_OR_LEN`], is the one count that expands, and only when a
/// [`DialedProof`] is built from it).
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated { need: n, have: self.remaining() });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// `v`, if decoding it used up the input.
    pub(crate) fn finish<T>(&self, v: T) -> Result<T, WireError> {
        match self.remaining() {
            0 => Ok(v),
            n => Err(WireError::TrailingBytes(n)),
        }
    }
}

/// A type with one byte layout: `put` appends it, `get` reads it back and
/// never panics. Structs, newtypes and tagged enums get both directions
/// from one [`codec!`] table entry; the impls written out here are the
/// ones with a check or a layout of their own.
pub(crate) trait Codec: Sized {
    fn put(&self, w: &mut Writer);
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError>;
}

macro_rules! le_ints {
    ($($t:ty),*) => {$(
        impl Codec for $t {
            fn put(&self, w: &mut Writer) {
                w.bytes(&self.to_le_bytes());
            }
            fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
                let b = r.take(std::mem::size_of::<$t>())?;
                Ok(<$t>::from_le_bytes(b.try_into().expect("sized slice")))
            }
        }
    )*};
}

le_ints!(u8, u16, u32, u64);

/// As a `u64`.
impl Codec for usize {
    fn put(&self, w: &mut Writer) {
        (*self as u64).put(w);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        usize::try_from(u64::get(r)?).map_err(|_| WireError::Overflow("u64 count"))
    }
}

/// One byte, 0 or 1.
impl Codec for bool {
    fn put(&self, w: &mut Writer) {
        u8::from(*self).put(w);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match u8::get(r)? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(WireError::BadBool(b)),
        }
    }
}

fn put_len(w: &mut Writer, n: usize) {
    u32::try_from(n).expect("field longer than u32::MAX").put(w);
}

fn get_len(r: &mut Reader<'_>) -> Result<usize, WireError> {
    usize::try_from(u32::get(r)?).map_err(|_| WireError::Overflow("u32 length"))
}

/// A `u32` byte length, then UTF-8. The length is checked against the
/// remaining input before anything is allocated.
impl Codec for String {
    fn put(&self, w: &mut Writer) {
        put_len(w, self.len());
        w.bytes(self.as_bytes());
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let n = get_len(r)?;
        std::str::from_utf8(r.take(n)?).map(str::to_owned).map_err(|_| WireError::BadUtf8)
    }
}

/// A `u32` count, then the elements.
impl<T: Codec> Codec for Vec<T> {
    fn put(&self, w: &mut Writer) {
        put_len(w, self.len());
        for v in self {
            v.put(w);
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let count = get_len(r)?;
        // Every element costs at least one byte, so a count beyond the
        // remaining input is unsatisfiable — reject before reserving.
        if count > r.remaining() {
            return Err(WireError::Truncated { need: count, have: r.remaining() });
        }
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            out.push(T::get(r)?);
        }
        Ok(out)
    }
}

/// A presence flag, then the value or 0.
impl Codec for Option<u64> {
    fn put(&self, w: &mut Writer) {
        self.is_some().put(w);
        self.unwrap_or(0).put(w);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(bool::get(r)?.then_some(u64::get(r)?))
    }
}

impl Codec for Digest {
    fn put(&self, w: &mut Writer) {
        w.bytes(self);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(r.take(DIGEST_LEN)?.try_into().expect("digest-sized slice"))
    }
}

impl Codec for Challenge {
    fn put(&self, w: &mut Writer) {
        self.as_bytes().put(w);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Challenge::from_bytes(Digest::get(r)?))
    }
}

/// The region metadata, re-validated on the way in: a region the verifier
/// would crash on (e.g. an even `or_max`) stops at the wire boundary.
impl Codec for PoxConfig {
    fn put(&self, w: &mut Writer) {
        w.bytes(&self.to_metadata_bytes());
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let (er_min, er_max, er_exit) = (u16::get(r)?, u16::get(r)?, u16::get(r)?);
        let (or_min, or_max) = (u16::get(r)?, u16::get(r)?);
        PoxConfig::new(er_min, er_max, er_exit, or_min, or_max)
            .map_err(|_| WireError::BadConfig("region bounds rejected"))
    }
}

/// Length of the leading run of zero bytes. Whole 64-byte blocks are
/// tested with a branch-free OR, which the compiler can vectorise; only
/// the block holding the first non-zero byte is searched byte by byte.
fn zero_prefix(bytes: &[u8]) -> usize {
    const BLOCK: usize = 64;
    let zero_blocks =
        bytes.chunks_exact(BLOCK).take_while(|b| b.iter().fold(0, |acc, &x| acc | x) == 0).count();
    let start = zero_blocks * BLOCK;
    start + bytes[start..].iter().take_while(|&&b| b == 0).count()
}

/// A proof body as the wire carries it (see the module docs): the output
/// region's leading zero run is a count, and only the written tail is
/// stored. A submitted proof waits for its drain in this form, so a
/// PoX-only proof, whose region is all zeros, holds no region bytes at all.
#[derive(Clone, PartialEq, Eq, Debug)]
pub(crate) struct PackedProof {
    cfg: PoxConfig,
    exec: bool,
    /// Output-region length; the first `or_len - tail.len()` bytes are 0.
    or_len: usize,
    /// The region from its first non-zero byte on (empty if all zero).
    tail: Vec<u8>,
    pub(crate) tag: Digest,
}

impl PackedProof {
    /// Packs `pox`, keeping only the region's tail after its zero run.
    pub(crate) fn pack(pox: &PoxProof) -> Self {
        let zeros = zero_prefix(&pox.or_data);
        PackedProof {
            cfg: pox.cfg,
            exec: pox.exec,
            or_len: pox.or_data.len(),
            tail: pox.or_data[zeros..].to_vec(),
            tag: pox.tag,
        }
    }

    /// The proof with its region expanded into `or`, whose old contents
    /// are dropped and whose capacity is reused: a drain passes the same
    /// buffer back for every proof it verifies.
    pub(crate) fn unpack_into(&self, mut or: Vec<u8>) -> DialedProof {
        or.clear();
        or.resize(self.or_len - self.tail.len(), 0);
        or.extend_from_slice(&self.tail);
        DialedProof { pox: PoxProof { cfg: self.cfg, exec: self.exec, or_data: or, tag: self.tag } }
    }
}

/// Writes one proof body: the region is `or_len` bytes, all zero but for
/// `tail` at its end. Both proof forms encode through this.
///
/// # Panics
///
/// Panics if the region is longer than [`MAX_OR_LEN`]: no decoder would
/// accept it back. Decoded proofs never are.
fn put_proof_body(
    w: &mut Writer,
    cfg: &PoxConfig,
    exec: bool,
    or_len: usize,
    tail: &[u8],
    tag: &Digest,
) {
    assert!(or_len <= MAX_OR_LEN, "output region longer than the address space");
    cfg.put(w);
    exec.put(w);
    (or_len as u32).put(w);
    ((or_len - tail.len()) as u32).put(w);
    w.bytes(tail);
    tag.put(w);
}

/// The proof-body layout. Both OR counts are bounded before anything is
/// allocated, and the tail is the only allocation.
impl Codec for PackedProof {
    fn put(&self, w: &mut Writer) {
        put_proof_body(w, &self.cfg, self.exec, self.or_len, &self.tail, &self.tag);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let cfg = PoxConfig::get(r)?;
        let exec = bool::get(r)?;
        let (or_len, zeros) = (u32::get(r)? as usize, u32::get(r)? as usize);
        if or_len > MAX_OR_LEN {
            return Err(WireError::BadOutputRegion("length past the 64 KiB address space"));
        }
        if zeros > or_len {
            return Err(WireError::BadOutputRegion("zero prefix longer than the region"));
        }
        let tail = r.take(or_len - zeros)?;
        if tail.first() == Some(&0) {
            return Err(WireError::BadOutputRegion("zero prefix not maximal"));
        }
        let tail = tail.to_vec();
        Ok(PackedProof { cfg, exec, or_len, tail, tag: Digest::get(r)? })
    }
}

/// A [`PackedProof`], expanded on decode.
impl Codec for DialedProof {
    fn put(&self, w: &mut Writer) {
        let pox = &self.pox;
        let tail = &pox.or_data[zero_prefix(&pox.or_data)..];
        put_proof_body(w, &pox.cfg, pox.exec, pox.or_data.len(), tail, &pox.tag);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let packed = PackedProof::get(r)?;
        Ok(packed.unpack_into(Vec::with_capacity(packed.or_len)))
    }
}

/// Implements [`Codec`] for a type from its one field list, so both
/// directions follow the same order and tag bytes. Three forms:
///
/// - `codec!(T { a, b })`: a struct, as its fields in wire order;
/// - `codec!(T(_))`: a newtype, as its one field;
/// - `codec!(enum T as "what" { 0 => A, 1 => B { x, y } })`: a tag byte,
///   then that variant's fields in wire order. Any other tag decodes to
///   [`WireError::UnknownTag`] with `what`.
macro_rules! codec {
    ($t:ident { $($f:ident),* $(,)? }) => {
        const _: () = {
            use $crate::wire::{Codec, Reader, WireError, Writer};
            impl Codec for $t {
                fn put(&self, w: &mut Writer) {
                    $(self.$f.put(w);)*
                }
                fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
                    Ok(Self { $($f: Codec::get(r)?),* })
                }
            }
        };
    };
    ($t:ident(_)) => {
        const _: () = {
            use $crate::wire::{Codec, Reader, WireError, Writer};
            impl Codec for $t {
                fn put(&self, w: &mut Writer) {
                    self.0.put(w);
                }
                fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
                    Ok(Self(Codec::get(r)?))
                }
            }
        };
    };
    (enum $t:ident as $what:literal {
        $($tag:literal => $v:ident $({ $($f:ident),* $(,)? })?),* $(,)?
    }) => {
        const _: () = {
            use $crate::wire::{Codec, Reader, WireError, Writer};
            impl Codec for $t {
                fn put(&self, w: &mut Writer) {
                    match self {
                        $($t::$v $({ $($f),* })? => {
                            w.bytes(&[$tag]);
                            $($(Codec::put($f, w);)*)?
                        })*
                    }
                }
                fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
                    Ok(match u8::get(r)? {
                        $($tag => $t::$v $({ $($f: Codec::get(r)?),* })?,)*
                        tag => return Err(WireError::UnknownTag { what: $what, tag }),
                    })
                }
            }
        };
    };
}
pub(crate) use codec;

codec!(ChallengeMsg { session, device, nonce, deadline, challenge });
codec!(ProofMsg { session, device, proof });
codec!(ReportMsg { session, device, report });
codec!(IssueMsg { request, device });
codec!(GrantMsg { request, body });
codec!(SubmitMsg { request, body });
codec!(VerdictMsg { request, body });
codec!(RejectMsg { request, reason });
codec!(Report { verdict, findings, stats });
codec!(VerifyStats { emulated_insns, log_bytes_used, cf_entries, input_entries, arg_entries });
codec!(enum Verdict as "verdict" { 0 => Clean, 1 => Rejected, 2 => Attack });
codec!(enum RejectReason as "reject reason" {
    0 => RegionMismatch,
    1 => ExecClear,
    2 => ErLengthMismatch,
    3 => OrLengthMismatch,
    4 => MacMismatch,
    5 => NotFullyInstrumented,
    6 => UnknownKey { device },
    7 => MalformedSubmission { detail },
    8 => SessionViolation { detail },
    9 => UnknownPrincipal { detail },
    10 => Overloaded { pending },
});
codec!(enum Finding as "finding" {
    0 => PoxRejected { reason },
    1 => ReturnHijack { at, expected, actual },
    2 => LogDivergence { addr, device, emulated },
    3 => OutOfBoundsWrite { pc, addr },
    4 => ActuationViolation { port, cycles, max },
    5 => OrHeadTruncated { capacity, required },
    6 => EmulationStuck,
    7 => PolicyViolation { policy, detail },
});

/// Encodes a message as one framed byte string.
#[must_use]
pub fn encode(msg: &Message) -> Vec<u8> {
    let mut out = Vec::with_capacity(128);
    encode_into(&mut out, msg);
    out
}

/// Appends one framed message to `out`, leaving its existing bytes as they
/// are — a sender batching many frames into one buffer allocates nothing
/// per frame once the buffer has grown.
pub fn encode_into(out: &mut Vec<u8>, msg: &Message) {
    // The payload is written straight after a header whose tag and length
    // are back-filled: one buffer, no copy.
    fn body(w: &mut Writer, tag: u8, m: &impl Codec) -> u8 {
        m.put(w);
        tag
    }
    let start = out.len();
    let mut w = Writer(std::mem::take(out));
    w.bytes(&MAGIC);
    w.bytes(&[WIRE_VERSION, 0, 0, 0, 0, 0]);
    let tag = match msg {
        Message::Challenge(m) => body(&mut w, TAG_CHALLENGE, m),
        Message::Proof(m) => body(&mut w, TAG_PROOF, m),
        Message::Report(m) => body(&mut w, TAG_REPORT, m),
        Message::Issue(m) => body(&mut w, TAG_ISSUE, m),
        Message::Grant(m) => body(&mut w, TAG_GRANT, m),
        Message::Submit(m) => body(&mut w, TAG_SUBMIT, m),
        Message::Verdict(m) => body(&mut w, TAG_VERDICT, m),
        Message::Reject(m) => body(&mut w, TAG_REJECT, m),
    };
    *out = w.0;
    let len = u32::try_from(out.len() - start - HEADER_LEN).expect("payload longer than u32::MAX");
    out[start + 3] = tag;
    out[start + 4..start + HEADER_LEN].copy_from_slice(&len.to_le_bytes());
}

/// Decodes one framed message.
///
/// # Errors
///
/// Returns a [`WireError`] for any input that is not exactly one
/// well-formed frame; never panics.
pub fn decode(bytes: &[u8]) -> Result<Message, WireError> {
    let (tag, mut r) = open_frame(bytes)?;
    let r = &mut r;
    let msg = match tag {
        TAG_CHALLENGE => Message::Challenge(Codec::get(r)?),
        TAG_PROOF => Message::Proof(Codec::get(r)?),
        TAG_REPORT => Message::Report(Codec::get(r)?),
        TAG_ISSUE => Message::Issue(Codec::get(r)?),
        TAG_GRANT => Message::Grant(Codec::get(r)?),
        TAG_SUBMIT => Message::Submit(Codec::get(r)?),
        TAG_VERDICT => Message::Verdict(Codec::get(r)?),
        TAG_REJECT => Message::Reject(Codec::get(r)?),
        tag => return Err(WireError::UnknownTag { what: "message", tag }),
    };
    r.finish(msg)
}

/// Checks a frame's header — magic, version, and a payload length that
/// matches the bytes present — and returns its message tag and a reader
/// over the payload.
fn open_frame(bytes: &[u8]) -> Result<(u8, Reader<'_>), WireError> {
    let mut r = Reader::new(bytes);
    if r.take(2)? != MAGIC {
        return Err(WireError::BadMagic);
    }
    let version = u8::get(&mut r)?;
    if version != WIRE_VERSION {
        return Err(WireError::UnsupportedVersion(version));
    }
    let tag = u8::get(&mut r)?;
    let announced = get_len(&mut r)?;
    if announced != r.remaining() {
        return Err(WireError::LengthMismatch { announced, present: r.remaining() });
    }
    Ok((tag, r))
}

/// Decodes a frame tagged `want` — a `Proof`, or a `Submit`, whose payload
/// is a request id and then a `Proof` payload — with its proof left packed:
/// [`decode`] without building the output region. Returns the request id
/// (0 for a `Proof`), session, device and proof. `Ok(None)` for a frame
/// whose header is sound but whose tag is not `want`; [`decode`] tells
/// what such a frame is.
///
/// # Errors
///
/// Exactly the [`WireError`] that [`decode`] returns for the same bytes.
pub(crate) fn decode_packed_proof(
    bytes: &[u8],
    want: u8,
) -> Result<Option<(u64, u64, u64, PackedProof)>, WireError> {
    let (tag, mut r) = open_frame(bytes)?;
    if tag != want {
        return Ok(None);
    }
    let r = &mut r;
    let request = if tag == TAG_SUBMIT { u64::get(r)? } else { 0 };
    let proof = (request, u64::get(r)?, u64::get(r)?, PackedProof::get(r)?);
    r.finish(Some(proof))
}

// ---------------------------------------------------------------------------
// Incremental framing

/// An incremental frame assembler for byte streams: socket reads arrive in
/// arbitrary chunks — a length prefix split across two reads, three frames
/// in one read — and [`FrameReader`] reassembles them into [`Message`]s.
///
/// Hostile-input posture:
///
/// * The magic and version bytes are checked as soon as they arrive, so a
///   peer speaking garbage is refused within its first two bytes, before
///   any buffering commitment.
/// * The announced payload length is checked against `max_frame` the
///   moment the header completes ([`WireError::FrameTooLarge`]); no length
///   field can make the reader buffer more than `HEADER_LEN + max_frame`
///   bytes per connection.
/// * Every error is **stream-fatal**: framing is byte-exact, so after any
///   violation there is no trustworthy resynchronisation point and the
///   caller should answer with a structured rejection and close.
///
/// The reader never blocks and never reads a socket itself — feed it
/// whatever bytes arrived, then [`poll`](FrameReader::poll) until it
/// reports `Ok(None)` (needs more bytes).
#[derive(Debug)]
pub struct FrameReader {
    max_frame: usize,
    buf: Vec<u8>,
}

impl FrameReader {
    /// A reader enforcing `max_frame` as the per-frame payload cap.
    #[must_use]
    pub fn new(max_frame: usize) -> Self {
        Self { max_frame, buf: Vec::new() }
    }

    /// Bytes buffered towards the next frame (diagnostics; also the
    /// caller's partial-frame signal for slow-loris deadlines).
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Appends bytes received from the stream.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Extracts the next complete message, if the buffer holds one.
    ///
    /// `Ok(Some(msg))` consumed one frame; call again — the buffer may
    /// hold more. `Ok(None)` means more bytes are needed.
    ///
    /// # Errors
    ///
    /// Any [`WireError`] is stream-fatal (see the type-level docs): bad
    /// magic or version, an over-cap length announcement, or a complete
    /// frame whose payload fails to decode.
    pub fn poll(&mut self) -> Result<Option<Message>, WireError> {
        self.poll_with(decode)
    }

    /// [`poll`](Self::poll) with each complete frame read by `read`
    /// instead of [`decode`]; an error from `read` is stream-fatal too.
    pub(crate) fn poll_with<T>(
        &mut self,
        read: impl FnOnce(&[u8]) -> Result<T, WireError>,
    ) -> Result<Option<T>, WireError> {
        // Fail fast on the fixed prefix, byte by byte, before waiting for
        // a full header.
        for (i, &expect) in MAGIC.iter().enumerate() {
            match self.buf.get(i) {
                Some(&b) if b == expect => {}
                Some(_) => return Err(WireError::BadMagic),
                None => return Ok(None),
            }
        }
        match self.buf.get(2) {
            Some(&v) if v != WIRE_VERSION => return Err(WireError::UnsupportedVersion(v)),
            Some(_) => {}
            None => return Ok(None),
        }
        if self.buf.len() < HEADER_LEN {
            return Ok(None);
        }
        let announced =
            u32::from_le_bytes(self.buf[4..8].try_into().expect("4 header bytes")) as usize;
        if announced > self.max_frame {
            return Err(WireError::FrameTooLarge { announced, max: self.max_frame });
        }
        let total = HEADER_LEN + announced;
        if self.buf.len() < total {
            return Ok(None);
        }
        let msg = read(&self.buf[..total])?;
        self.buf.drain(..total);
        Ok(Some(msg))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_proof() -> ProofMsg {
        let cfg = PoxConfig::new(0xE000, 0xE0FF, 0xE0FE, 0x0600, 0x06FF).unwrap();
        ProofMsg {
            session: 7,
            device: 42,
            proof: DialedProof {
                pox: PoxProof {
                    cfg,
                    exec: true,
                    or_data: (0..=255u8).collect(),
                    tag: [0xA5; DIGEST_LEN],
                },
            },
        }
    }

    fn sample_report() -> ReportMsg {
        ReportMsg {
            session: 9,
            device: 13,
            report: Report {
                verdict: Verdict::Attack,
                findings: vec![
                    Finding::PoxRejected {
                        reason: RejectReason::SessionViolation {
                            detail: "naïve — UTF-8 ✓".into()
                        },
                    },
                    Finding::PoxRejected { reason: RejectReason::MacMismatch },
                    Finding::PoxRejected { reason: RejectReason::UnknownKey { device: 1 << 40 } },
                    Finding::ReturnHijack { at: 1, expected: 2, actual: 3 },
                    Finding::LogDivergence { addr: 0x600, device: 5, emulated: 6 },
                    Finding::OutOfBoundsWrite { pc: 7, addr: 8 },
                    Finding::ActuationViolation { port: 0x60, cycles: 1 << 40, max: 9 },
                    Finding::OrHeadTruncated { capacity: 8, required: 9 },
                    Finding::EmulationStuck,
                    Finding::PolicyViolation { policy: "p".into(), detail: "d".into() },
                ],
                stats: VerifyStats {
                    emulated_insns: 1,
                    log_bytes_used: 2,
                    cf_entries: 3,
                    input_entries: 4,
                    arg_entries: 5,
                },
            },
        }
    }

    fn sample_messages() -> Vec<Message> {
        vec![
            Message::Challenge(ChallengeMsg {
                session: 1,
                device: 2,
                nonce: 3,
                deadline: 4,
                challenge: Challenge::derive(b"wire", 0),
            }),
            Message::Proof(sample_proof()),
            Message::Report(sample_report()),
            Message::Issue(IssueMsg { request: 11, device: 42 }),
            Message::Grant(GrantMsg {
                request: 12,
                body: ChallengeMsg {
                    session: 5,
                    device: 42,
                    nonce: 6,
                    deadline: 7,
                    challenge: Challenge::derive(b"net", 1),
                },
            }),
            Message::Submit(SubmitMsg { request: 13, body: sample_proof() }),
            Message::Verdict(VerdictMsg { request: 14, body: sample_report() }),
            Message::Reject(RejectMsg {
                request: 15,
                reason: RejectReason::Overloaded { pending: 1 << 33 },
            }),
            Message::Reject(RejectMsg {
                request: 16,
                reason: RejectReason::MalformedSubmission { detail: "torn frame".into() },
            }),
        ]
    }

    /// `sample_messages()` as bytes, in hex: a codec change that moves a
    /// single byte of any message fails here, not in a peer.
    const PINNED_FRAMES: [&str; 9] = [
        "4457040140000000010000000000000002000000000000000300000000000000\
         0400000000000000b8c94e02a48287c1ee086a6c0e1d27c3f357efd552c12ac9\
         6d1fdcb11014e79c",
        "445704024201000007000000000000002a0000000000000000e0ffe0fee00006\
         ff060100010000010000000102030405060708090a0b0c0d0e0f101112131415\
         161718191a1b1c1d1e1f202122232425262728292a2b2c2d2e2f303132333435\
         363738393a3b3c3d3e3f404142434445464748494a4b4c4d4e4f505152535455\
         565758595a5b5c5d5e5f606162636465666768696a6b6c6d6e6f707172737475\
         767778797a7b7c7d7e7f808182838485868788898a8b8c8d8e8f909192939495\
         969798999a9b9c9d9e9fa0a1a2a3a4a5a6a7a8a9aaabacadaeafb0b1b2b3b4b5\
         b6b7b8b9babbbcbdbebfc0c1c2c3c4c5c6c7c8c9cacbcccdcecfd0d1d2d3d4d5\
         d6d7d8d9dadbdcdddedfe0e1e2e3e4e5e6e7e8e9eaebecedeeeff0f1f2f3f4f5\
         f6f7f8f9fafbfcfdfeffa5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5\
         a5a5a5a5a5a5a5a5a5a5",
        "44570403a600000009000000000000000d00000000000000020a000000000814\
         0000006e61c3af766520e28094205554462d3820e29c93000400060000000000\
         0100000101000200030002000605000600030700080004600000000000000100\
         0009000000000000000508000000000000000900000000000000060701000000\
         7001000000640100000000000000020000000000000003000000000000000400\
         0000000000000500000000000000",
        "44570405100000000b000000000000002a00000000000000",
        "44570406480000000c0000000000000005000000000000002a00000000000000\
         060000000000000007000000000000009b27c3a4c6c6e8ec229aebdf366c9303\
         7d475353c3d385d0a903dc841ee849fc",
        "445704074a0100000d0000000000000007000000000000002a00000000000000\
         00e0ffe0fee00006ff060100010000010000000102030405060708090a0b0c0d\
         0e0f101112131415161718191a1b1c1d1e1f202122232425262728292a2b2c2d\
         2e2f303132333435363738393a3b3c3d3e3f404142434445464748494a4b4c4d\
         4e4f505152535455565758595a5b5c5d5e5f606162636465666768696a6b6c6d\
         6e6f707172737475767778797a7b7c7d7e7f808182838485868788898a8b8c8d\
         8e8f909192939495969798999a9b9c9d9e9fa0a1a2a3a4a5a6a7a8a9aaabacad\
         aeafb0b1b2b3b4b5b6b7b8b9babbbcbdbebfc0c1c2c3c4c5c6c7c8c9cacbcccd\
         cecfd0d1d2d3d4d5d6d7d8d9dadbdcdddedfe0e1e2e3e4e5e6e7e8e9eaebeced\
         eeeff0f1f2f3f4f5f6f7f8f9fafbfcfdfeffa5a5a5a5a5a5a5a5a5a5a5a5a5a5\
         a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5",
        "44570408ae0000000e0000000000000009000000000000000d00000000000000\
         020a0000000008140000006e61c3af766520e28094205554462d3820e29c9300\
         0400060000000000010000010100020003000200060500060003070008000460\
         0000000000000100000900000000000000050800000000000000090000000000\
         0000060701000000700100000064010000000000000002000000000000000300\
         00000000000004000000000000000500000000000000",
        "44570409110000000f000000000000000a0000000002000000",
        "44570409170000001000000000000000070a000000746f726e206672616d65",
    ];

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn all_message_types_round_trip() {
        let msgs = sample_messages();
        assert_eq!(msgs.len(), PINNED_FRAMES.len());
        for (msg, pinned) in msgs.into_iter().zip(PINNED_FRAMES) {
            let bytes = encode(&msg);
            assert_eq!(hex(&bytes), pinned, "{msg:?}");
            assert_eq!(decode(&bytes).as_ref(), Ok(&msg), "{msg:?}");
        }
    }

    #[test]
    fn every_truncation_errors_cleanly() {
        for msg in sample_messages() {
            let bytes = encode(&msg);
            for cut in 0..bytes.len() {
                assert!(decode(&bytes[..cut]).is_err(), "prefix {cut} of {msg:?} decoded");
            }
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = encode(&sample_messages()[0]);
        bytes.push(0);
        // An appended byte breaks the announced length.
        assert_eq!(decode(&bytes), Err(WireError::LengthMismatch { announced: 64, present: 65 }));
    }

    #[test]
    fn header_corruptions_are_specific_errors() {
        let bytes = encode(&sample_messages()[0]);

        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert_eq!(decode(&bad), Err(WireError::BadMagic));

        let mut bad = bytes.clone();
        bad[2] = 0x7F;
        assert_eq!(decode(&bad), Err(WireError::UnsupportedVersion(0x7F)));

        let mut bad = bytes.clone();
        bad[3] = 0xEE;
        assert_eq!(decode(&bad), Err(WireError::UnknownTag { what: "message", tag: 0xEE }));

        let mut bad = bytes;
        bad[4] ^= 0x01;
        assert!(matches!(decode(&bad), Err(WireError::LengthMismatch { .. })));
    }

    /// Offset of a `Proof` frame's OR length field: after the header,
    /// session, device, region metadata and `EXEC` byte. The zero prefix
    /// follows it, then the tail.
    const OR_LEN_OFF: usize = HEADER_LEN + 8 + 8 + 10 + 1;

    fn proof_with_or(or_data: Vec<u8>) -> Message {
        let mut msg = sample_proof();
        msg.proof.pox.or_data = or_data;
        Message::Proof(msg)
    }

    /// `bytes`, a proof frame, with its two OR counts overwritten.
    fn with_or_counts(mut bytes: Vec<u8>, len: u32, zeros: u32) -> Vec<u8> {
        bytes[OR_LEN_OFF..OR_LEN_OFF + 4].copy_from_slice(&len.to_le_bytes());
        bytes[OR_LEN_OFF + 4..OR_LEN_OFF + 8].copy_from_slice(&zeros.to_le_bytes());
        bytes
    }

    #[test]
    fn or_shapes_round_trip_canonically() {
        let n = sample_proof().proof.pox.cfg.or_len();
        let one_at = |i: usize| {
            let mut or = vec![0; n];
            or[i] = 0x80;
            or
        };
        let shapes = [
            Vec::new(),
            vec![0; n],
            vec![0xFF; n],
            one_at(0),
            one_at(n - 1),
            // The `MutantForge` OR truncate/extend mutants' lengths.
            vec![0; n - 2],
            [vec![0; n], vec![7, 7]].concat(),
        ];
        for or in shapes {
            let zeros = or.iter().take_while(|&&b| b == 0).count();
            let msg = proof_with_or(or.clone());
            let bytes = encode(&msg);
            assert_eq!(bytes.len(), OR_LEN_OFF + 8 + (or.len() - zeros) + DIGEST_LEN);
            assert_eq!(bytes[OR_LEN_OFF + 4..OR_LEN_OFF + 8], (zeros as u32).to_le_bytes());
            assert_eq!(decode(&bytes).as_ref(), Ok(&msg), "OR {or:?}");
            for cut in 0..bytes.len() {
                assert!(decode(&bytes[..cut]).is_err(), "prefix {cut} of OR {or:?} decoded");
            }
        }
    }

    #[test]
    fn non_canonical_tail_rejected() {
        // Announce one zero fewer than the OR starts with: the tail then
        // begins with a 0 byte, a second spelling of the same region.
        let mut or = vec![0; 16];
        or[9] = 1;
        let bytes = encode(&proof_with_or(or));
        let mut bad = with_or_counts(bytes.clone(), 16, 8);
        bad.insert(OR_LEN_OFF + 8, 0);
        let payload = (bad.len() - HEADER_LEN) as u32;
        bad[4..8].copy_from_slice(&payload.to_le_bytes());
        assert_eq!(decode(&bad), Err(WireError::BadOutputRegion("zero prefix not maximal")));
        assert!(decode(&bytes).is_ok());
    }

    #[test]
    fn or_length_past_64k_fails_before_allocating() {
        // An all-zero region costs 8 bytes on the wire whatever its
        // length, so the counts are bounded before the region is built.
        let empty = encode(&proof_with_or(Vec::new()));
        let past = (MAX_OR_LEN + 1) as u32;
        for (len, zeros) in [(past, past), (u32::MAX, u32::MAX), (u32::MAX, 0)] {
            assert_eq!(
                decode(&with_or_counts(empty.clone(), len, zeros)),
                Err(WireError::BadOutputRegion("length past the 64 KiB address space"))
            );
        }
        for zeros in [17, past, u32::MAX] {
            assert_eq!(
                decode(&with_or_counts(empty.clone(), 16, zeros)),
                Err(WireError::BadOutputRegion("zero prefix longer than the region"))
            );
        }
        // The bound itself is a legal (all-zero) region.
        let max = MAX_OR_LEN as u32;
        let Ok(Message::Proof(m)) = decode(&with_or_counts(empty, max, max)) else {
            panic!("a 64 KiB all-zero region decodes");
        };
        assert_eq!(m.proof.pox.or_data, vec![0; MAX_OR_LEN]);
    }

    #[test]
    fn invalid_embedded_config_rejected_at_decode() {
        // Even `or_max` (the PoxConfig regression class) must not survive
        // the wire boundary.
        let mut msg = sample_proof();
        msg.proof.pox.cfg.or_max = 0x06FE;
        let bytes = encode(&Message::Proof(msg));
        assert_eq!(decode(&bytes), Err(WireError::BadConfig("region bounds rejected")));
    }

    #[test]
    fn non_canonical_bool_rejected() {
        let msg = sample_proof();
        let bytes = encode(&Message::Proof(msg));
        let mut bad = bytes;
        let exec_off = HEADER_LEN + 8 + 8 + 10;
        bad[exec_off] = 2;
        assert_eq!(decode(&bad), Err(WireError::BadBool(2)));
    }

    #[test]
    fn retired_batch_summary_tag_is_refused() {
        // A frame that decoded as a batch summary before tag 4 was retired:
        // seven u64 statistics and an empty outcome list.
        let payload = [0u8; 7 * 8 + 4];
        let mut frame = MAGIC.to_vec();
        frame.extend_from_slice(&[WIRE_VERSION, 4]);
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&payload);
        assert_eq!(decode(&frame), Err(WireError::UnknownTag { what: "message", tag: 4 }));
    }

    #[test]
    fn frame_reader_one_byte_at_a_time() {
        // Socket reads arrive in arbitrary chunks; the worst case is one
        // byte per read, with the length prefix split across feeds.
        for msg in sample_messages() {
            let bytes = encode(&msg);
            let mut reader = FrameReader::new(1 << 20);
            for (i, &b) in bytes.iter().enumerate() {
                reader.feed(&[b]);
                let got = reader.poll().unwrap_or_else(|e| panic!("byte {i} of {msg:?}: {e}"));
                if i + 1 < bytes.len() {
                    assert!(got.is_none(), "byte {i} of {msg:?} completed early");
                } else {
                    assert_eq!(got.as_ref(), Some(&msg));
                }
            }
            assert_eq!(reader.buffered(), 0);
            assert_eq!(reader.poll(), Ok(None));
        }
    }

    #[test]
    fn frame_reader_many_frames_one_feed() {
        let msgs = sample_messages();
        let mut stream = Vec::new();
        for msg in &msgs {
            stream.extend_from_slice(&encode(msg));
        }
        let mut reader = FrameReader::new(1 << 20);
        reader.feed(&stream);
        for msg in &msgs {
            assert_eq!(reader.poll().unwrap().as_ref(), Some(msg));
        }
        assert_eq!(reader.poll(), Ok(None));
        assert_eq!(reader.buffered(), 0);
    }

    #[test]
    fn frame_reader_rejects_garbage_immediately() {
        // A peer speaking the wrong protocol is refused on its first byte,
        // not after a full header's worth of buffering.
        let mut reader = FrameReader::new(1 << 20);
        reader.feed(&[0xFF]);
        assert_eq!(reader.poll(), Err(WireError::BadMagic));

        let mut reader = FrameReader::new(1 << 20);
        reader.feed(&[MAGIC[0], MAGIC[1], 0x7F]);
        assert_eq!(reader.poll(), Err(WireError::UnsupportedVersion(0x7F)));
    }

    #[test]
    fn frame_reader_caps_announced_length() {
        // A 4 GiB length announcement must be refused at the header, long
        // before any payload byte is buffered.
        let mut header = encode(&sample_messages()[0])[..HEADER_LEN].to_vec();
        header[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut reader = FrameReader::new(1 << 20);
        reader.feed(&header);
        assert_eq!(
            reader.poll(),
            Err(WireError::FrameTooLarge { announced: u32::MAX as usize, max: 1 << 20 })
        );
    }

    /// A region buffer a drain has already used for a longer proof: the
    /// unpack must not leave any of it behind.
    fn dirty_buffer() -> Vec<u8> {
        vec![0xEE; 3000]
    }

    /// Decoding `bytes` straight into the packed form, as a `Proof` or as
    /// a `Submit` frame, and unpacking it gives exactly what [`decode`]
    /// gives: the same ids and proof, the same error, or — for a frame of
    /// another kind — `None`.
    fn assert_packed_decode_agrees(bytes: &[u8]) {
        for want in [TAG_PROOF, TAG_SUBMIT] {
            let full = decode(bytes).map(|msg| match msg {
                Message::Proof(m) if want == TAG_PROOF => Some((0, m)),
                Message::Submit(m) if want == TAG_SUBMIT => Some((m.request, m.body)),
                _ => None,
            });
            match (decode_packed_proof(bytes, want), full) {
                (Ok(Some((request, session, device, packed))), Ok(Some((r, m)))) => {
                    assert_eq!((request, session, device), (r, m.session, m.device));
                    assert_eq!(packed, PackedProof::pack(&m.proof.pox));
                    assert_eq!(packed.unpack_into(dirty_buffer()), m.proof);
                }
                (Ok(None), Ok(None)) => {}
                (Ok(None), Err(_)) => assert_ne!(bytes[3], want),
                (Err(packed), Err(full)) => assert_eq!(packed, full),
                (packed, full) => panic!("packed decode {packed:?}, decode {full:?}"),
            }
        }
    }

    /// `frame` with `extra` bytes appended to its payload and the length
    /// field grown to match.
    fn with_trailing(mut frame: Vec<u8>, extra: &[u8]) -> Vec<u8> {
        frame.extend_from_slice(extra);
        let payload = (frame.len() - HEADER_LEN) as u32;
        frame[4..HEADER_LEN].copy_from_slice(&payload.to_le_bytes());
        frame
    }

    /// A `Submit` frame's proof as the `Proof` frame a device would send:
    /// the request id dropped.
    fn submit_as_proof_frame(submit: &[u8]) -> Vec<u8> {
        let mut frame = submit[..HEADER_LEN].to_vec();
        frame[3] = TAG_PROOF;
        with_trailing(frame, &submit[HEADER_LEN + 8..])
    }

    /// Every frame of every committed corpus case file.
    fn corpus_frames() -> Vec<Vec<u8>> {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../corpus");
        let mut frames = Vec::new();
        for app in std::fs::read_dir(root).unwrap().flatten() {
            for case in std::fs::read_dir(app.path()).unwrap().flatten() {
                let mut reader = FrameReader::new(1 << 20);
                let bytes = std::fs::read(case.path()).unwrap();
                reader.feed(&bytes);
                let mut at = 0;
                while let Some(msg) = reader.poll().unwrap() {
                    let len = encode(&msg).len();
                    frames.push(bytes[at..at + len].to_vec());
                    at += len;
                }
                assert_eq!(at, bytes.len(), "{:?} is whole frames", case.path());
            }
        }
        frames
    }

    #[test]
    fn packed_decode_agrees_on_pinned_and_corpus_frames() {
        let pinned = PINNED_FRAMES.iter().map(|h| {
            let h: String = h.split_whitespace().collect();
            (0..h.len()).step_by(2).map(|i| u8::from_str_radix(&h[i..i + 2], 16).unwrap()).collect()
        });
        let corpus = corpus_frames();
        let submits = corpus.iter().filter(|f| f[3] == TAG_SUBMIT).count();
        assert!(submits >= 40, "the corpus holds one submission per case, found {submits}");
        let mut carriers = 0;
        for frame in pinned.chain(corpus).collect::<Vec<Vec<u8>>>() {
            let frames = if frame[3] == TAG_SUBMIT {
                assert!(decode_packed_proof(&frame, TAG_SUBMIT).unwrap().is_some());
                vec![submit_as_proof_frame(&frame), frame]
            } else {
                vec![frame]
            };
            for frame in frames {
                assert_packed_decode_agrees(&frame);
                if frame[3] == TAG_PROOF || frame[3] == TAG_SUBMIT {
                    carriers += 1;
                    for cut in 0..frame.len() {
                        assert_packed_decode_agrees(&frame[..cut]);
                    }
                    assert_packed_decode_agrees(&with_trailing(frame, &[0]));
                }
            }
        }
        // The pinned proof, the pinned submit (twice) and each corpus submit
        // (twice).
        assert_eq!(carriers, 3 + 2 * submits);
    }

    #[test]
    fn pack_then_unpack_is_the_identity() {
        let cfg = sample_proof().proof.pox.cfg;
        let mut shapes = vec![Vec::new(), vec![0xFF; 2048], vec![0; MAX_OR_LEN]];
        // A zero run of every length up to the whole region (every length
        // mod 64 several times over), then a written tail.
        for zeros in 0..=2048 {
            let mut or: Vec<u8> = (0..2048).map(|i| (i % 251) as u8).collect();
            or[..zeros].fill(0);
            if let Some(b) = or.get_mut(zeros) {
                *b = 0x80;
            }
            shapes.push(or);
        }
        let mut last = vec![0; MAX_OR_LEN];
        last[MAX_OR_LEN - 1] = 1;
        shapes.push(last);
        let mut buf = dirty_buffer();
        for or_data in shapes {
            let pox = PoxProof { cfg, exec: true, or_data, tag: [3; DIGEST_LEN] };
            let packed = PackedProof::pack(&pox);
            let zeros = zero_prefix(&pox.or_data);
            assert_eq!(packed.tail, pox.or_data[zeros..]);
            let proof = packed.unpack_into(buf);
            assert_eq!(proof.pox, pox);
            // Through the wire too: both proof forms encode alike.
            let mut w = Writer(Vec::new());
            packed.put(&mut w);
            let mut direct = Writer(Vec::new());
            proof.put(&mut direct);
            assert_eq!(w.0, direct.0);
            assert_eq!(PackedProof::get(&mut Reader::new(&w.0)).as_ref(), Ok(&packed));
            buf = proof.pox.or_data;
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(256))]

        /// Generated proof and submit frames, their truncations, byte
        /// overwrites and trailing payload bytes: the packed decode agrees
        /// with `decode`.
        #[test]
        fn packed_decode_agrees_on_generated_frames(
            or_len in 0usize..300,
            zeros in 0usize..320,
            fill in proptest::array::uniform8(proptest::prelude::any::<u8>()),
            exec in proptest::prelude::any::<bool>(),
            pos in proptest::prelude::any::<usize>(),
            byte in proptest::prelude::any::<u8>(),
            cut in proptest::prelude::any::<usize>(),
        ) {
            let mut or: Vec<u8> = (0..or_len).map(|i| fill[i % 8]).collect();
            or[..zeros.min(or_len)].fill(0);
            let mut msg = sample_proof();
            msg.proof.pox.or_data = or;
            msg.proof.pox.exec = exec;
            let submit = Message::Submit(SubmitMsg { request: pos as u64, body: msg.clone() });
            for (frame, or_at) in [(encode(&Message::Proof(msg)), OR_LEN_OFF), (encode(&submit), OR_LEN_OFF + 8)] {
                assert_packed_decode_agrees(&frame);
                assert_packed_decode_agrees(&frame[..cut % frame.len()]);
                assert_packed_decode_agrees(&with_trailing(frame.clone(), &fill[..1 + pos % 8]));
                // Aim at the header and the OR counts half of the time.
                let pos = if pos % 2 == 0 { pos / 2 % (or_at + 8) } else { pos % frame.len() };
                let mut bad = frame;
                bad[pos] = byte;
                assert_packed_decode_agrees(&bad);
            }
        }
    }

    #[test]
    fn frame_reader_payload_errors_surface() {
        // A complete frame with a corrupt payload fails decode through the
        // reader just as it does through `decode` directly.
        let mut bytes = encode(&Message::Proof(sample_proof()));
        let exec_off = HEADER_LEN + 8 + 8 + 10;
        bytes[exec_off] = 2;
        let mut reader = FrameReader::new(1 << 20);
        reader.feed(&bytes);
        assert_eq!(reader.poll(), Err(WireError::BadBool(2)));
    }
}
