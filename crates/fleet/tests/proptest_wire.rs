//! Property tests for the wire codec: round-trip fidelity and totality
//! (no input — truncated, bit-flipped, or fully random — may panic the
//! decoder).

use apex::{PoxConfig, PoxProof};
use dialed::attest::DialedProof;
use dialed::report::{Finding, RejectReason, Report, Verdict, VerifyStats};
use fleet::wire::{
    self, ChallengeMsg, GrantMsg, IssueMsg, Message, ProofMsg, RejectMsg, ReportMsg, SubmitMsg,
    VerdictMsg,
};
use proptest::prelude::*;
use vrased::Challenge;

fn verdict_from(tag: u8) -> Verdict {
    match tag % 3 {
        0 => Verdict::Clean,
        1 => Verdict::Rejected,
        _ => Verdict::Attack,
    }
}

fn reject_from(tag: u8, a: u16, text: &str) -> RejectReason {
    match tag % 11 {
        0 => RejectReason::RegionMismatch,
        1 => RejectReason::ExecClear,
        2 => RejectReason::ErLengthMismatch,
        3 => RejectReason::OrLengthMismatch,
        4 => RejectReason::MacMismatch,
        5 => RejectReason::NotFullyInstrumented,
        6 => RejectReason::UnknownKey { device: u64::from(a) << 32 },
        7 => RejectReason::MalformedSubmission { detail: text.to_string() },
        8 => RejectReason::SessionViolation { detail: text.to_string() },
        9 => RejectReason::UnknownPrincipal { detail: text.to_string() },
        _ => RejectReason::Overloaded { pending: u64::from(a) << 40 },
    }
}

fn finding_from(tag: u8, a: u16, b: u16, text: &str) -> Finding {
    match tag % 8 {
        0 => Finding::PoxRejected { reason: reject_from(tag / 8, a, text) },
        1 => Finding::ReturnHijack { at: a, expected: b, actual: a ^ b },
        2 => Finding::LogDivergence { addr: a, device: b, emulated: a.wrapping_add(b) },
        3 => Finding::OutOfBoundsWrite { pc: a, addr: b },
        4 => Finding::ActuationViolation { port: a, cycles: u64::from(b) << 32, max: u64::from(a) },
        5 => Finding::OrHeadTruncated { capacity: usize::from(a), required: usize::from(b) },
        6 => Finding::EmulationStuck,
        _ => Finding::PolicyViolation { policy: text.to_string(), detail: text.to_string() },
    }
}

/// A structurally valid config derived from three generator words.
fn config_from(er_len: u16, or_len: u16, exit_off: u16) -> PoxConfig {
    let er_min = 0xE000;
    let er_max = er_min + 2 + (er_len % 0x400);
    let er_exit = (er_min + (exit_off % (er_max - er_min + 1))) & !1;
    let or_min = 0x0400;
    let or_max = or_min + 1 + 2 * (or_len % 0x200); // always odd
    PoxConfig::new(er_min, er_max, er_exit, or_min, or_max).unwrap()
}

/// An output region of `len` bytes: `zeros` leading zero bytes (clamped
/// to `len`), then bytes drawn from `fill` — which may themselves be zero,
/// so the encoded zero prefix can run past `zeros`.
fn or_region(len: usize, zeros: usize, fill: &[u8]) -> Vec<u8> {
    let zeros = zeros.min(len);
    let mut or = vec![0; len];
    for (i, b) in or[zeros..].iter_mut().enumerate() {
        *b = fill[i % fill.len()];
    }
    or
}

fn challenge_msg(session: u64, device: u64, nonce: u64, deadline: u64, label: u64) -> ChallengeMsg {
    ChallengeMsg { session, device, nonce, deadline, challenge: Challenge::derive(b"prop", label) }
}

/// A proof whose output region is `cfg`'s length, filled with `fill`.
fn proof_msg(
    session: u64,
    device: u64,
    cfg: PoxConfig,
    exec: bool,
    fill: u8,
    tag: [u8; 8],
) -> ProofMsg {
    let mut digest = [0u8; 32];
    digest[..8].copy_from_slice(&tag);
    ProofMsg {
        session,
        device,
        proof: DialedProof {
            pox: PoxProof { cfg, exec, or_data: vec![fill; cfg.or_len()], tag: digest },
        },
    }
}

/// A report with one finding per entry of `tags`, over every variant.
fn report_msg(
    session: u64,
    device: u64,
    verdict: u8,
    tags: &[u8],
    a: u16,
    b: u16,
    insns: u32,
) -> ReportMsg {
    ReportMsg {
        session,
        device,
        report: Report {
            verdict: verdict_from(verdict),
            findings: tags.iter().map(|&t| finding_from(t, a, b, "détail ✓")).collect(),
            stats: VerifyStats {
                emulated_insns: insns as usize,
                log_bytes_used: a.into(),
                cf_entries: b.into(),
                input_entries: 1,
                arg_entries: 9,
            },
        },
    }
}

/// A proof frame carrying `or_data` over a config whose region is
/// `or_len` bytes — lengths may disagree, as truncate/extend mutants do.
fn proof_frame(or_len: u16, or_data: Vec<u8>) -> Message {
    let cfg = config_from(64, or_len, 0);
    Message::Proof(ProofMsg {
        session: 5,
        device: 6,
        proof: DialedProof { pox: PoxProof { cfg, exec: true, or_data, tag: [7; 32] } },
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// decode(encode(x)) == x for arbitrary challenge messages.
    #[test]
    fn challenge_round_trips(session in any::<u64>(), device in any::<u64>(),
                             nonce in any::<u64>(), deadline in any::<u64>(),
                             label in any::<u64>()) {
        let msg = Message::Challenge(challenge_msg(session, device, nonce, deadline, label));
        let decoded = wire::decode(&wire::encode(&msg));
        prop_assert_eq!(decoded.as_ref(), Ok(&msg));
    }

    /// decode(encode(x)) == x for arbitrary proofs over valid configs.
    #[test]
    fn proof_round_trips(session in any::<u64>(), device in any::<u64>(),
                         er_len in any::<u16>(), or_len in any::<u16>(), exit in any::<u16>(),
                         exec in any::<bool>(),
                         fill in any::<u8>(), tag in proptest::array::uniform8(any::<u8>())) {
        let cfg = config_from(er_len, or_len, exit);
        let msg = Message::Proof(proof_msg(session, device, cfg, exec, fill, tag));
        let decoded = wire::decode(&wire::encode(&msg));
        prop_assert_eq!(decoded.as_ref(), Ok(&msg));
    }

    /// decode(encode(x)) == x for reports over every finding variant, and
    /// `encode_into` appends exactly `encode`'s bytes after any prefix,
    /// leaving the prefix untouched.
    #[test]
    fn report_round_trips(session in any::<u64>(), device in any::<u64>(),
                          verdict in any::<u8>(),
                          tags in proptest::collection::vec(any::<u8>(), 0..12),
                          a in any::<u16>(), b in any::<u16>(),
                          insns in any::<u32>(),
                          prefix in proptest::collection::vec(any::<u8>(), 0..300)) {
        let msg = Message::Report(report_msg(session, device, verdict, &tags, a, b, insns));
        let encoded = wire::encode(&msg);
        let decoded = wire::decode(&encoded);
        prop_assert_eq!(decoded.as_ref(), Ok(&msg));
        let mut out = prefix.clone();
        wire::encode_into(&mut out, &msg);
        prop_assert_eq!(&out[..prefix.len()], &prefix[..]);
        prop_assert_eq!(&out[prefix.len()..], &encoded[..]);
    }

    /// decode(encode(x)) == x for the five networked envelopes, each
    /// wrapped around the generators above.
    #[test]
    fn envelopes_round_trip(request in any::<u64>(), session in any::<u64>(),
                            device in any::<u64>(), word in any::<u64>(),
                            cfg in proptest::array::uniform8(any::<u16>()),
                            tag in proptest::array::uniform8(any::<u8>()),
                            tags in proptest::collection::vec(any::<u8>(), 0..12)) {
        // `cfg` also feeds the byte-sized choices and the finding fields.
        let [er_len, or_len, exit, a, b, exec, fill, choice] = cfg;
        let (verdict, reason) = (choice as u8, (choice >> 8) as u8);
        let msgs = [
            Message::Issue(IssueMsg { request, device }),
            Message::Grant(GrantMsg {
                request,
                body: challenge_msg(session, device, word, !word, word),
            }),
            Message::Submit(SubmitMsg {
                request,
                body: proof_msg(session, device, config_from(er_len, or_len, exit),
                                exec % 2 == 0, fill as u8, tag),
            }),
            Message::Verdict(VerdictMsg {
                request,
                body: report_msg(session, device, verdict, &tags, a, b, word as u32),
            }),
            Message::Reject(RejectMsg { request, reason: reject_from(reason, a, "détail ✓") }),
        ];
        for msg in msgs {
            let decoded = wire::decode(&wire::encode(&msg));
            prop_assert_eq!(decoded.as_ref(), Ok(&msg));
        }
    }

    /// Totality: decoding arbitrary bytes never panics.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = wire::decode(&bytes);
    }

    /// Totality: every truncation of a valid frame errors cleanly.
    #[test]
    fn truncations_never_panic(cut in any::<usize>(), nonce in any::<u64>()) {
        let bytes = wire::encode(&Message::Challenge(ChallengeMsg {
            session: 1, device: 2, nonce, deadline: 4,
            challenge: Challenge::derive(b"trunc", nonce),
        }));
        let cut = cut % bytes.len();
        prop_assert!(wire::decode(&bytes[..cut]).is_err());
    }

    /// Totality + integrity: single-bit corruption of a proof frame either
    /// fails to decode or decodes to a *different* well-formed message —
    /// never a panic, and never silently the original.
    #[test]
    fn bitflips_never_panic(pos in any::<usize>(), bit in 0u8..8,
                            or_len in any::<u16>()) {
        let cfg = config_from(64, or_len, 0);
        let msg = Message::Proof(ProofMsg {
            session: 5, device: 6,
            proof: DialedProof { pox: PoxProof {
                cfg, exec: true,
                or_data: vec![0x5A; cfg.or_len()],
                tag: [7; 32],
            }},
        });
        let mut bytes = wire::encode(&msg);
        let pos = pos % bytes.len();
        bytes[pos] ^= 1 << bit;
        if let Ok(decoded) = wire::decode(&bytes) {
            prop_assert_ne!(decoded, msg, "flipped bit at {} unnoticed", pos);
        }
    }

    /// Every OR shape round-trips — including lengths that disagree with
    /// the config (the truncate/extend mutants) — and costs only its tail
    /// past the zero prefix; every truncation of the frame errors.
    #[test]
    fn or_shapes_round_trip_and_truncate_cleanly(
        or_len in any::<u16>(),
        delta in -4i32..=4,
        zeros in 0usize..1200,
        fill in proptest::array::uniform8(any::<u8>()),
    ) {
        let n = (config_from(64, or_len, 0).or_len() as i32 + delta).max(0) as usize;
        let or = or_region(n, zeros, &fill);
        let tail = n - or.iter().take_while(|&&b| b == 0).count();
        let msg = proof_frame(or_len, or);
        let bytes = wire::encode(&msg);
        prop_assert_eq!(bytes.len(), wire::HEADER_LEN + 8 + 8 + 10 + 1 + 8 + tail + 32);
        let decoded = wire::decode(&bytes);
        prop_assert_eq!(decoded.as_ref(), Ok(&msg));
        for cut in 0..bytes.len() {
            prop_assert!(wire::decode(&bytes[..cut]).is_err(), "prefix {} decoded", cut);
        }
    }

    /// The encoding is canonical: whatever a corrupted proof frame decodes
    /// to re-encodes to exactly the accepted bytes.
    #[test]
    fn accepted_frames_re_encode_identically(
        or_len in 0u16..64,
        zeros in 0usize..140,
        fill in proptest::array::uniform8(any::<u8>()),
        pos in any::<usize>(),
        byte in any::<u8>(),
    ) {
        let n = config_from(64, or_len, 0).or_len();
        let mut bytes = wire::encode(&proof_frame(or_len, or_region(n, zeros, &fill)));
        // Aim at the OR counts and tail a third of the time.
        let or_off = wire::HEADER_LEN + 8 + 8 + 10 + 1;
        let pos = if pos % 3 == 0 { or_off + pos / 3 % 12 } else { pos } % bytes.len();
        bytes[pos] = byte;
        if let Ok(decoded) = wire::decode(&bytes) {
            prop_assert_eq!(wire::encode(&decoded), bytes);
        }
    }
}
