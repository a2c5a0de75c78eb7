//! Every failure class of every service layer maps into the structured
//! [`RejectReason`] — wire decode, session protocol, registry lookups and
//! the cryptographic PoX check all land in a matchable variant, and the
//! mapped reasons survive the wire codec.

use apex::PoxRejection;
use dialed::report::{Finding, RejectReason, Report, Verdict};
use fleet::wire::{self, Message, ReportMsg, WireError};
use fleet::{DeviceId, Fleet, FleetConfig, OpId, RegistryError, SessionError, SessionState};

/// One representative of every [`WireError`] variant.
fn wire_errors() -> Vec<WireError> {
    vec![
        WireError::Truncated { need: 8, have: 3 },
        WireError::BadMagic,
        WireError::UnsupportedVersion(9),
        WireError::UnknownTag { what: "message", tag: 0xEE },
        WireError::LengthMismatch { announced: 10, present: 4 },
        WireError::TrailingBytes(2),
        WireError::BadUtf8,
        WireError::BadBool(7),
        WireError::BadConfig("region bounds rejected"),
        WireError::BadOutputRegion("zero prefix not maximal"),
        WireError::Overflow("payload length"),
        WireError::UnexpectedMessage { expected: "proof" },
    ]
}

/// One representative of every [`SessionError`] variant.
fn session_errors() -> Vec<SessionError> {
    vec![
        SessionError::UnknownSession(fleet::SessionId(9)),
        SessionError::DeviceMismatch { expected: DeviceId(1), got: DeviceId(2) },
        SessionError::NotAwaitingProof(SessionState::Submitted),
        SessionError::Expired { deadline: 44 },
        SessionError::ReplayedProof,
    ]
}

#[test]
fn every_wire_failure_class_maps_to_malformed_submission() {
    for err in wire_errors() {
        let detail = err.to_string();
        let reason = RejectReason::from(err);
        assert_eq!(reason, RejectReason::MalformedSubmission { detail });
    }
}

#[test]
fn every_session_failure_class_maps_to_session_violation() {
    for err in session_errors() {
        let detail = err.to_string();
        let reason = RejectReason::from(err);
        assert_eq!(reason, RejectReason::SessionViolation { detail });
    }
}

#[test]
fn every_registry_failure_class_maps_to_unknown_principal() {
    for err in [RegistryError::UnknownOp(OpId(4)), RegistryError::UnknownDevice(DeviceId(17))] {
        let detail = err.to_string();
        let reason = RejectReason::from(err);
        assert_eq!(reason, RejectReason::UnknownPrincipal { detail });
    }
}

#[test]
fn every_crypto_failure_class_maps_losslessly() {
    let classes = [
        (PoxRejection::RegionMismatch, RejectReason::RegionMismatch),
        (PoxRejection::ExecClear, RejectReason::ExecClear),
        (PoxRejection::ErLengthMismatch, RejectReason::ErLengthMismatch),
        (PoxRejection::OrLengthMismatch, RejectReason::OrLengthMismatch),
        (PoxRejection::MacMismatch, RejectReason::MacMismatch),
    ];
    for (pox, expect) in classes {
        assert_eq!(RejectReason::from(pox), expect);
        // Display text is shared, so operator output stays stable across
        // the conversion.
        assert_eq!(pox.to_string(), expect.to_string());
    }
}

#[test]
fn overload_shedding_is_a_distinct_reject_class() {
    // Backpressure is not a verdict on the proof: it must stay its own
    // matchable variant (devices retry on it; they must NOT retry on,
    // say, MacMismatch) and carry the observed queue depth.
    let reason = RejectReason::Overloaded { pending: 4096 };
    assert_eq!(reason.to_string(), "service overloaded: 4096 submissions queued, retry later");
    let report = Report::rejected(reason.clone());
    assert_eq!(report.verdict, Verdict::Rejected);
    let msg = ReportMsg { session: 0, device: 0, report };
    let decoded = wire::decode(&wire::encode(&Message::Report(msg.clone())));
    assert_eq!(decoded, Ok(Message::Report(msg)));
}

#[test]
fn failed_submissions_become_wire_ready_rejection_reports() {
    let mut fleet = Fleet::new(FleetConfig::default());

    // Garbage bytes die at the wire layer…
    let err = fleet.submit_wire(b"junk", 0).unwrap_err();
    let report = Report::rejected(err.unwrap_err());
    assert_eq!(report.verdict, Verdict::Rejected);
    let Finding::PoxRejected { reason } = &report.findings[0] else {
        panic!("rejection report must carry a PoxRejected finding");
    };
    assert!(matches!(reason, RejectReason::MalformedSubmission { .. }), "{reason:?}");

    // …and the structured report round-trips through the same codec that
    // carries verification verdicts.
    let msg = ReportMsg { session: 1, device: 2, report: report.clone() };
    let decoded = wire::decode(&wire::encode(&Message::Report(msg.clone())));
    assert_eq!(decoded, Ok(Message::Report(msg)));

    // A session-layer failure maps to its own class.
    let session_report = Report::rejected(SessionError::ReplayedProof);
    assert_eq!(
        session_report.findings,
        vec![Finding::PoxRejected {
            reason: RejectReason::SessionViolation {
                detail: SessionError::ReplayedProof.to_string()
            }
        }]
    );

    // A registry failure maps through the same Into<RejectReason> door.
    let registry_report = Report::rejected(RegistryError::UnknownDevice(DeviceId(3)));
    assert!(matches!(
        &registry_report.findings[0],
        Finding::PoxRejected { reason: RejectReason::UnknownPrincipal { .. } }
    ));
}
