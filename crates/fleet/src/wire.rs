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
//! A proof body (inside `Proof` and `Submit` frames, and shared with the
//! durable store's events and snapshots) is:
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
//! accepted `b`.
//!
//! Every decode path is **total**: malformed, truncated, corrupted or
//! hostile input yields a [`WireError`], never a panic, and no length
//! field can drive an allocation larger than the input plus
//! [`MAX_OR_LEN`] per proof (a zero prefix expands on decode). Decoding
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
const TAG_PROOF: u8 = 2;
const TAG_REPORT: u8 = 3;
// Tag 4 (a batch summary) is retired and must never be reassigned: a peer
// that still sends it is refused as an unknown tag.
const TAG_ISSUE: u8 = 5;
const TAG_GRANT: u8 = 6;
const TAG_SUBMIT: u8 = 7;
const TAG_VERDICT: u8 = 8;
const TAG_REJECT: u8 = 9;

// ---------------------------------------------------------------------------
// Encoding

/// Little-endian byte-string builder shared by the wire codec and the
/// durable store ([`crate::store`]): both speak the same framing dialect.
pub(crate) struct Writer(pub(crate) Vec<u8>);

impl Writer {
    pub(crate) fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    pub(crate) fn u16(&mut self, v: u16) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    pub(crate) fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    pub(crate) fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    pub(crate) fn bytes(&mut self, v: &[u8]) {
        self.0.extend_from_slice(v);
    }
    /// Length-prefixed byte string (`u32` length).
    pub(crate) fn lp_bytes(&mut self, v: &[u8]) {
        self.u32(u32::try_from(v.len()).expect("field longer than u32::MAX"));
        self.bytes(v);
    }
    pub(crate) fn string(&mut self, v: &str) {
        self.lp_bytes(v.as_bytes());
    }
}

fn encode_challenge(w: &mut Writer, m: &ChallengeMsg) {
    w.u64(m.session);
    w.u64(m.device);
    w.u64(m.nonce);
    w.u64(m.deadline);
    w.bytes(m.challenge.as_bytes());
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

/// Encodes the proof body alone (see the module docs for its layout) —
/// shared with the durable store, which persists accepted proofs inside
/// `ProofAccepted` events and snapshots.
///
/// # Panics
///
/// Panics if the output region is longer than [`MAX_OR_LEN`]: no decoder
/// would accept it back. Decoded proofs never are.
pub(crate) fn encode_dialed_proof(w: &mut Writer, proof: &DialedProof) {
    let pox = &proof.pox;
    assert!(pox.or_data.len() <= MAX_OR_LEN, "output region longer than the address space");
    w.bytes(&pox.cfg.to_metadata_bytes());
    w.u8(u8::from(pox.exec));
    let zeros = zero_prefix(&pox.or_data);
    w.u32(pox.or_data.len() as u32);
    w.u32(zeros as u32);
    w.bytes(&pox.or_data[zeros..]);
    w.bytes(&pox.tag);
}

fn encode_proof(w: &mut Writer, m: &ProofMsg) {
    w.u64(m.session);
    w.u64(m.device);
    encode_dialed_proof(w, &m.proof);
}

fn encode_verdict(w: &mut Writer, v: Verdict) {
    w.u8(match v {
        Verdict::Clean => 0,
        Verdict::Rejected => 1,
        Verdict::Attack => 2,
    });
}

fn encode_reject_reason(w: &mut Writer, reason: &RejectReason) {
    match reason {
        RejectReason::RegionMismatch => w.u8(0),
        RejectReason::ExecClear => w.u8(1),
        RejectReason::ErLengthMismatch => w.u8(2),
        RejectReason::OrLengthMismatch => w.u8(3),
        RejectReason::MacMismatch => w.u8(4),
        RejectReason::NotFullyInstrumented => w.u8(5),
        RejectReason::UnknownKey { device } => {
            w.u8(6);
            w.u64(*device);
        }
        RejectReason::MalformedSubmission { detail } => {
            w.u8(7);
            w.string(detail);
        }
        RejectReason::SessionViolation { detail } => {
            w.u8(8);
            w.string(detail);
        }
        RejectReason::UnknownPrincipal { detail } => {
            w.u8(9);
            w.string(detail);
        }
        RejectReason::Overloaded { pending } => {
            w.u8(10);
            w.u64(*pending);
        }
    }
}

fn encode_finding(w: &mut Writer, finding: &Finding) {
    match finding {
        Finding::PoxRejected { reason } => {
            w.u8(0);
            encode_reject_reason(w, reason);
        }
        Finding::ReturnHijack { at, expected, actual } => {
            w.u8(1);
            w.u16(*at);
            w.u16(*expected);
            w.u16(*actual);
        }
        Finding::LogDivergence { addr, device, emulated } => {
            w.u8(2);
            w.u16(*addr);
            w.u16(*device);
            w.u16(*emulated);
        }
        Finding::OutOfBoundsWrite { pc, addr } => {
            w.u8(3);
            w.u16(*pc);
            w.u16(*addr);
        }
        Finding::ActuationViolation { port, cycles, max } => {
            w.u8(4);
            w.u16(*port);
            w.u64(*cycles);
            w.u64(*max);
        }
        Finding::OrHeadTruncated { capacity, required } => {
            w.u8(5);
            w.u64(*capacity as u64);
            w.u64(*required as u64);
        }
        Finding::EmulationStuck => w.u8(6),
        Finding::PolicyViolation { policy, detail } => {
            w.u8(7);
            w.string(policy);
            w.string(detail);
        }
    }
}

/// Encodes a full [`Report`] (verdict + findings + stats) — shared with
/// the durable store, which persists verdicts inside `VerdictRecorded`
/// events.
pub(crate) fn encode_report_fields(w: &mut Writer, report: &Report) {
    encode_verdict(w, report.verdict);
    w.u32(u32::try_from(report.findings.len()).expect("finding count"));
    for finding in &report.findings {
        encode_finding(w, finding);
    }
    let s = &report.stats;
    w.u64(s.emulated_insns as u64);
    w.u64(s.log_bytes_used as u64);
    w.u64(s.cf_entries as u64);
    w.u64(s.input_entries as u64);
    w.u64(s.arg_entries as u64);
}

fn encode_report(w: &mut Writer, m: &ReportMsg) {
    w.u64(m.session);
    w.u64(m.device);
    encode_report_fields(w, &m.report);
}

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
    let start = out.len();
    let mut w = Writer(std::mem::take(out));
    w.bytes(&MAGIC);
    w.u8(WIRE_VERSION);
    w.bytes(&[0; 5]);
    let tag = match msg {
        Message::Challenge(m) => {
            encode_challenge(&mut w, m);
            TAG_CHALLENGE
        }
        Message::Proof(m) => {
            encode_proof(&mut w, m);
            TAG_PROOF
        }
        Message::Report(m) => {
            encode_report(&mut w, m);
            TAG_REPORT
        }
        Message::Issue(m) => {
            w.u64(m.request);
            w.u64(m.device);
            TAG_ISSUE
        }
        Message::Grant(m) => {
            w.u64(m.request);
            encode_challenge(&mut w, &m.body);
            TAG_GRANT
        }
        Message::Submit(m) => {
            w.u64(m.request);
            encode_proof(&mut w, &m.body);
            TAG_SUBMIT
        }
        Message::Verdict(m) => {
            w.u64(m.request);
            encode_report(&mut w, &m.body);
            TAG_VERDICT
        }
        Message::Reject(m) => {
            w.u64(m.request);
            encode_reject_reason(&mut w, &m.reason);
            TAG_REJECT
        }
    };
    *out = w.0;
    let len = u32::try_from(out.len() - start - HEADER_LEN).expect("payload longer than u32::MAX");
    out[start + 3] = tag;
    out[start + 4..start + HEADER_LEN].copy_from_slice(&len.to_le_bytes());
}

// ---------------------------------------------------------------------------
// Decoding

/// Total-decode cursor shared by the wire codec and the durable store —
/// every read is bounds-checked and no announced length can drive an
/// allocation larger than the input itself (a proof's zero prefix, capped
/// at [`MAX_OR_LEN`], is the one count that expands).
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

    pub(crate) fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u16(&mut self) -> Result<u16, WireError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    pub(crate) fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }

    pub(crate) fn usize64(&mut self, what: &'static str) -> Result<usize, WireError> {
        usize::try_from(self.u64()?).map_err(|_| WireError::Overflow(what))
    }

    pub(crate) fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(WireError::BadBool(b)),
        }
    }

    /// A length-prefixed byte string. The announced length is checked
    /// against the remaining input *before* any allocation, so a hostile
    /// length cannot make the decoder allocate more than the input size.
    pub(crate) fn lp_bytes(&mut self) -> Result<Vec<u8>, WireError> {
        let n = usize::try_from(self.u32()?).map_err(|_| WireError::Overflow("byte string"))?;
        Ok(self.take(n)?.to_vec())
    }

    pub(crate) fn string(&mut self) -> Result<String, WireError> {
        String::from_utf8(self.lp_bytes()?).map_err(|_| WireError::BadUtf8)
    }

    pub(crate) fn digest(&mut self) -> Result<Digest, WireError> {
        Ok(self.take(DIGEST_LEN)?.try_into().expect("digest-sized slice"))
    }
}

fn decode_challenge(r: &mut Reader<'_>) -> Result<ChallengeMsg, WireError> {
    Ok(ChallengeMsg {
        session: r.u64()?,
        device: r.u64()?,
        nonce: r.u64()?,
        deadline: r.u64()?,
        challenge: Challenge::from_bytes(r.digest()?),
    })
}

fn decode_config(r: &mut Reader<'_>) -> Result<PoxConfig, WireError> {
    let (er_min, er_max, er_exit) = (r.u16()?, r.u16()?, r.u16()?);
    let (or_min, or_max) = (r.u16()?, r.u16()?);
    PoxConfig::new(er_min, er_max, er_exit, or_min, or_max)
        .map_err(|_| WireError::BadConfig("region bounds rejected"))
}

/// Decodes a proof body alone (the inverse of [`encode_dialed_proof`]),
/// re-validating the embedded [`PoxConfig`] exactly as the wire path does.
/// Both counts are bounded before anything is allocated.
pub(crate) fn decode_dialed_proof(r: &mut Reader<'_>) -> Result<DialedProof, WireError> {
    let cfg = decode_config(r)?;
    let exec = r.bool()?;
    let (len, zeros) = (r.u32()? as usize, r.u32()? as usize);
    if len > MAX_OR_LEN {
        return Err(WireError::BadOutputRegion("length past the 64 KiB address space"));
    }
    if zeros > len {
        return Err(WireError::BadOutputRegion("zero prefix longer than the region"));
    }
    let tail = r.take(len - zeros)?;
    if tail.first() == Some(&0) {
        return Err(WireError::BadOutputRegion("zero prefix not maximal"));
    }
    let mut or_data = Vec::with_capacity(len);
    or_data.resize(zeros, 0);
    or_data.extend_from_slice(tail);
    let tag = r.digest()?;
    Ok(DialedProof { pox: PoxProof { cfg, exec, or_data, tag } })
}

fn decode_proof(r: &mut Reader<'_>) -> Result<ProofMsg, WireError> {
    let session = r.u64()?;
    let device = r.u64()?;
    let proof = decode_dialed_proof(r)?;
    Ok(ProofMsg { session, device, proof })
}

fn decode_verdict(r: &mut Reader<'_>) -> Result<Verdict, WireError> {
    match r.u8()? {
        0 => Ok(Verdict::Clean),
        1 => Ok(Verdict::Rejected),
        2 => Ok(Verdict::Attack),
        tag => Err(WireError::UnknownTag { what: "verdict", tag }),
    }
}

fn decode_reject_reason(r: &mut Reader<'_>) -> Result<RejectReason, WireError> {
    match r.u8()? {
        0 => Ok(RejectReason::RegionMismatch),
        1 => Ok(RejectReason::ExecClear),
        2 => Ok(RejectReason::ErLengthMismatch),
        3 => Ok(RejectReason::OrLengthMismatch),
        4 => Ok(RejectReason::MacMismatch),
        5 => Ok(RejectReason::NotFullyInstrumented),
        6 => Ok(RejectReason::UnknownKey { device: r.u64()? }),
        7 => Ok(RejectReason::MalformedSubmission { detail: r.string()? }),
        8 => Ok(RejectReason::SessionViolation { detail: r.string()? }),
        9 => Ok(RejectReason::UnknownPrincipal { detail: r.string()? }),
        10 => Ok(RejectReason::Overloaded { pending: r.u64()? }),
        tag => Err(WireError::UnknownTag { what: "reject reason", tag }),
    }
}

fn decode_finding(r: &mut Reader<'_>) -> Result<Finding, WireError> {
    match r.u8()? {
        0 => Ok(Finding::PoxRejected { reason: decode_reject_reason(r)? }),
        1 => Ok(Finding::ReturnHijack { at: r.u16()?, expected: r.u16()?, actual: r.u16()? }),
        2 => Ok(Finding::LogDivergence { addr: r.u16()?, device: r.u16()?, emulated: r.u16()? }),
        3 => Ok(Finding::OutOfBoundsWrite { pc: r.u16()?, addr: r.u16()? }),
        4 => Ok(Finding::ActuationViolation { port: r.u16()?, cycles: r.u64()?, max: r.u64()? }),
        5 => Ok(Finding::OrHeadTruncated {
            capacity: r.usize64("finding capacity")?,
            required: r.usize64("finding required")?,
        }),
        6 => Ok(Finding::EmulationStuck),
        7 => Ok(Finding::PolicyViolation { policy: r.string()?, detail: r.string()? }),
        tag => Err(WireError::UnknownTag { what: "finding", tag }),
    }
}

/// Decodes a full [`Report`] (the inverse of [`encode_report_fields`]).
pub(crate) fn decode_report_fields(r: &mut Reader<'_>) -> Result<Report, WireError> {
    let verdict = decode_verdict(r)?;
    let count = usize::try_from(r.u32()?).map_err(|_| WireError::Overflow("finding count"))?;
    // Every finding costs at least its one tag byte, so a count beyond the
    // remaining input is unsatisfiable — reject before reserving anything.
    if count > r.remaining() {
        return Err(WireError::Truncated { need: count, have: r.remaining() });
    }
    let mut findings = Vec::with_capacity(count);
    for _ in 0..count {
        findings.push(decode_finding(r)?);
    }
    let stats = VerifyStats {
        emulated_insns: r.usize64("emulated_insns")?,
        log_bytes_used: r.usize64("log_bytes_used")?,
        cf_entries: r.usize64("cf_entries")?,
        input_entries: r.usize64("input_entries")?,
        arg_entries: r.usize64("arg_entries")?,
    };
    Ok(Report { verdict, findings, stats })
}

fn decode_report(r: &mut Reader<'_>) -> Result<ReportMsg, WireError> {
    let session = r.u64()?;
    let device = r.u64()?;
    let report = decode_report_fields(r)?;
    Ok(ReportMsg { session, device, report })
}

/// Decodes one framed message.
///
/// # Errors
///
/// Returns a [`WireError`] for any input that is not exactly one
/// well-formed frame; never panics.
pub fn decode(bytes: &[u8]) -> Result<Message, WireError> {
    let mut r = Reader::new(bytes);
    if r.take(2)? != MAGIC {
        return Err(WireError::BadMagic);
    }
    let version = r.u8()?;
    if version != WIRE_VERSION {
        return Err(WireError::UnsupportedVersion(version));
    }
    let tag = r.u8()?;
    let announced = usize::try_from(r.u32()?).map_err(|_| WireError::Overflow("payload length"))?;
    if announced != r.remaining() {
        return Err(WireError::LengthMismatch { announced, present: r.remaining() });
    }
    let msg = match tag {
        TAG_CHALLENGE => Message::Challenge(decode_challenge(&mut r)?),
        TAG_PROOF => Message::Proof(decode_proof(&mut r)?),
        TAG_REPORT => Message::Report(decode_report(&mut r)?),
        TAG_ISSUE => Message::Issue(IssueMsg { request: r.u64()?, device: r.u64()? }),
        TAG_GRANT => {
            Message::Grant(GrantMsg { request: r.u64()?, body: decode_challenge(&mut r)? })
        }
        TAG_SUBMIT => Message::Submit(SubmitMsg { request: r.u64()?, body: decode_proof(&mut r)? }),
        TAG_VERDICT => {
            Message::Verdict(VerdictMsg { request: r.u64()?, body: decode_report(&mut r)? })
        }
        TAG_REJECT => {
            Message::Reject(RejectMsg { request: r.u64()?, reason: decode_reject_reason(&mut r)? })
        }
        tag => return Err(WireError::UnknownTag { what: "message", tag }),
    };
    if r.remaining() != 0 {
        return Err(WireError::TrailingBytes(r.remaining()));
    }
    Ok(msg)
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
        let msg = decode(&self.buf[..total])?;
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

    #[test]
    fn all_message_types_round_trip() {
        for msg in sample_messages() {
            let bytes = encode(&msg);
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
