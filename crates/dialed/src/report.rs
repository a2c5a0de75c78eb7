//! Verification reports, attack findings, and structured rejections.

use apex::PoxRejection;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Why a proof (or submission) was rejected before reconstruction-level
/// findings could be produced.
///
/// Every layer of the stack maps its failures into this one enum: the
/// cryptographic PoX check ([`PoxRejection`] via [`From`]), the request
/// layer ([`RejectReason::UnknownKey`], [`RejectReason::NotFullyInstrumented`]),
/// and the fleet service's wire, session and registry layers (which
/// provide their own `From` conversions into the three service-layer
/// variants). Consumers match on the class; [`fmt::Display`] renders the
/// operator-facing text.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum RejectReason {
    /// The proof's region metadata differs from what the verifier expects.
    RegionMismatch,
    /// EXEC flag clear — the operation did not run untouched start-to-finish.
    ExecClear,
    /// The verifier's expected ER image does not span the configured region.
    ErLengthMismatch,
    /// The OR snapshot does not span the configured output region.
    OrLengthMismatch,
    /// The MAC did not verify (wrong key/challenge, or tampered content).
    MacMismatch,
    /// Full data-flow verification was requested for an operation that was
    /// not built with full DIALED instrumentation.
    NotFullyInstrumented,
    /// The request's [`KeySource`](crate::request::KeySource) had no key
    /// for the device being verified.
    UnknownKey {
        /// The device id the key lookup failed for.
        device: u64,
    },
    /// The submission could not be decoded off the wire.
    MalformedSubmission {
        /// Human-readable decode failure.
        detail: String,
    },
    /// The session layer refused the submission (duplicate, replay,
    /// deadline, device mismatch, …).
    SessionViolation {
        /// Human-readable session failure.
        detail: String,
    },
    /// The registry does not know the referenced device or operation.
    UnknownPrincipal {
        /// Human-readable registry failure.
        detail: String,
    },
    /// The service shed the submission because its ingest queues backed up
    /// past the load-shedding watermark — explicit backpressure, not a
    /// verdict on the proof. The device should retry after a pause.
    Overloaded {
        /// Queue depth observed at the shedding decision.
        pending: u64,
    },
}

/// The payload-free classification of a [`RejectReason`] — one class per
/// variant, with the detail fields (device ids, human-readable strings,
/// queue depths) stripped.
///
/// The mutation-oracle and accounting layers need to say "this mutant must
/// die as a MAC mismatch" or "count session-layer rejects" without caring
/// which device or which detail string was involved; comparing full
/// [`RejectReason`] values would make every expectation depend on
/// free-text. `RejectClass` is `Copy`, `Eq` and densely indexable
/// ([`RejectClass::index`]), so per-class counters are a flat array.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub enum RejectClass {
    /// [`RejectReason::RegionMismatch`].
    Region,
    /// [`RejectReason::ExecClear`].
    Exec,
    /// [`RejectReason::ErLengthMismatch`].
    ErLength,
    /// [`RejectReason::OrLengthMismatch`].
    OrLength,
    /// [`RejectReason::MacMismatch`].
    Mac,
    /// [`RejectReason::NotFullyInstrumented`].
    NotInstrumented,
    /// [`RejectReason::UnknownKey`].
    UnknownKey,
    /// [`RejectReason::MalformedSubmission`].
    Malformed,
    /// [`RejectReason::SessionViolation`].
    Session,
    /// [`RejectReason::UnknownPrincipal`].
    Principal,
    /// [`RejectReason::Overloaded`].
    Overloaded,
}

impl RejectClass {
    /// Every class, in wire-tag order (the order of
    /// [`RejectReason`]'s variants).
    pub const ALL: [RejectClass; 11] = [
        RejectClass::Region,
        RejectClass::Exec,
        RejectClass::ErLength,
        RejectClass::OrLength,
        RejectClass::Mac,
        RejectClass::NotInstrumented,
        RejectClass::UnknownKey,
        RejectClass::Malformed,
        RejectClass::Session,
        RejectClass::Principal,
        RejectClass::Overloaded,
    ];

    /// Dense index of this class within [`RejectClass::ALL`] — stable, and
    /// equal to the variant's wire tag.
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Short stable label ("mac", "session", …) for corpus case files and
    /// counter displays.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            RejectClass::Region => "region",
            RejectClass::Exec => "exec",
            RejectClass::ErLength => "er-length",
            RejectClass::OrLength => "or-length",
            RejectClass::Mac => "mac",
            RejectClass::NotInstrumented => "not-instrumented",
            RejectClass::UnknownKey => "unknown-key",
            RejectClass::Malformed => "malformed",
            RejectClass::Session => "session",
            RejectClass::Principal => "principal",
            RejectClass::Overloaded => "overloaded",
        }
    }
}

impl fmt::Display for RejectClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl RejectReason {
    /// This reason's payload-free [`RejectClass`].
    #[must_use]
    pub fn class(&self) -> RejectClass {
        match self {
            RejectReason::RegionMismatch => RejectClass::Region,
            RejectReason::ExecClear => RejectClass::Exec,
            RejectReason::ErLengthMismatch => RejectClass::ErLength,
            RejectReason::OrLengthMismatch => RejectClass::OrLength,
            RejectReason::MacMismatch => RejectClass::Mac,
            RejectReason::NotFullyInstrumented => RejectClass::NotInstrumented,
            RejectReason::UnknownKey { .. } => RejectClass::UnknownKey,
            RejectReason::MalformedSubmission { .. } => RejectClass::Malformed,
            RejectReason::SessionViolation { .. } => RejectClass::Session,
            RejectReason::UnknownPrincipal { .. } => RejectClass::Principal,
            RejectReason::Overloaded { .. } => RejectClass::Overloaded,
        }
    }
}

impl From<PoxRejection> for RejectReason {
    fn from(r: PoxRejection) -> Self {
        match r {
            PoxRejection::RegionMismatch => RejectReason::RegionMismatch,
            PoxRejection::ExecClear => RejectReason::ExecClear,
            PoxRejection::ErLengthMismatch => RejectReason::ErLengthMismatch,
            PoxRejection::OrLengthMismatch => RejectReason::OrLengthMismatch,
            PoxRejection::MacMismatch => RejectReason::MacMismatch,
        }
    }
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RejectReason::RegionMismatch => PoxRejection::RegionMismatch.fmt(f),
            RejectReason::ExecClear => PoxRejection::ExecClear.fmt(f),
            RejectReason::ErLengthMismatch => PoxRejection::ErLengthMismatch.fmt(f),
            RejectReason::OrLengthMismatch => PoxRejection::OrLengthMismatch.fmt(f),
            RejectReason::MacMismatch => PoxRejection::MacMismatch.fmt(f),
            RejectReason::NotFullyInstrumented => {
                write!(f, "operation was not built with full DIALED instrumentation")
            }
            RejectReason::UnknownKey { device } => {
                write!(f, "no verification key for device {device}")
            }
            RejectReason::MalformedSubmission { detail } => {
                write!(f, "malformed submission: {detail}")
            }
            RejectReason::SessionViolation { detail } => {
                write!(f, "session violation: {detail}")
            }
            RejectReason::UnknownPrincipal { detail } => {
                write!(f, "unknown principal: {detail}")
            }
            RejectReason::Overloaded { pending } => {
                write!(f, "service overloaded: {pending} submissions queued, retry later")
            }
        }
    }
}

/// One concrete finding from verification.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum Finding {
    /// The proof itself did not verify (wrong code, tampered OR, cleared
    /// EXEC, replay, missing key, …).
    PoxRejected {
        /// Structured rejection class.
        reason: RejectReason,
    },
    /// A `ret` (or the toplevel return) went somewhere other than its call
    /// site — the Fig. 1 class of control-flow hijack, reproduced by the
    /// verifier's shadow stack during abstract execution.
    ReturnHijack {
        /// Address of the return instruction.
        at: u16,
        /// The legitimate return target.
        expected: u16,
        /// Where control actually went.
        actual: u16,
    },
    /// The attested OR differs from the OR recomputed by abstract
    /// execution — device behaviour diverged from its own logs.
    LogDivergence {
        /// First diverging OR address.
        addr: u16,
        /// Device word at that slot.
        device: u16,
        /// Recomputed word at that slot.
        emulated: u16,
    },
    /// A store targeted memory outside the operation's stack and its
    /// declared writable regions — the Fig. 2 class of data-only attack.
    OutOfBoundsWrite {
        /// PC of the store.
        pc: u16,
        /// Target address.
        addr: u16,
    },
    /// Actuation pulse exceeded the declared safety bound.
    ActuationViolation {
        /// Actuator port address.
        port: u16,
        /// Measured pulse length in CPU cycles.
        cycles: u64,
        /// Declared maximum.
        max: u64,
    },
    /// The OR region is too small to hold the 9-word log head (SP base +
    /// eight argument registers), so the proof carries no trustworthy
    /// initial state to re-execute from.
    OrHeadTruncated {
        /// Word slots the region actually holds.
        capacity: usize,
        /// Word slots the log head requires.
        required: usize,
    },
    /// Abstract execution did not terminate within its budget (the device
    /// log drives the program into an abort or livelock).
    EmulationStuck,
    /// A custom policy flagged the execution.
    PolicyViolation {
        /// Policy name.
        policy: String,
        /// Human-readable detail.
        detail: String,
    },
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Finding::PoxRejected { reason } => write!(f, "PoX rejected: {reason}"),
            Finding::ReturnHijack { at, expected, actual } => write!(
                f,
                "control-flow hijack: ret at {at:#06x} went to {actual:#06x}, expected {expected:#06x}"
            ),
            Finding::LogDivergence { addr, device, emulated } => write!(
                f,
                "log divergence at {addr:#06x}: device {device:#06x} ≠ recomputed {emulated:#06x}"
            ),
            Finding::OutOfBoundsWrite { pc, addr } => {
                write!(f, "data-only attack: store from {pc:#06x} to {addr:#06x} out of bounds")
            }
            Finding::ActuationViolation { port, cycles, max } => write!(
                f,
                "actuation violation: port {port:#06x} pulsed {cycles} cycles (max {max})"
            ),
            Finding::OrHeadTruncated { capacity, required } => write!(
                f,
                "OR region holds {capacity} word slots but the log head needs {required}"
            ),
            Finding::EmulationStuck => write!(f, "abstract execution did not terminate"),
            Finding::PolicyViolation { policy, detail } => {
                write!(f, "policy `{policy}`: {detail}")
            }
        }
    }
}

/// Overall verdict.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum Verdict {
    /// Proof valid and the reconstructed execution is benign.
    Clean,
    /// The cryptographic proof itself failed.
    Rejected,
    /// Proof valid but the reconstructed execution shows an attack.
    Attack,
}

/// Statistics the verifier gathered (useful for the Fig. 6 harness).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub struct VerifyStats {
    /// Instructions abstractly executed.
    pub emulated_insns: usize,
    /// Log bytes the device consumed in OR.
    pub log_bytes_used: usize,
    /// Number of logged words classified as control-flow entries.
    pub cf_entries: usize,
    /// Number of logged words classified as data-input entries.
    pub input_entries: usize,
    /// Number of logged words from the entry block (SP base + args).
    pub arg_entries: usize,
}

/// The verifier's complete answer.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct Report {
    /// Verdict.
    pub verdict: Verdict,
    /// All findings (empty when clean).
    pub findings: Vec<Finding>,
    /// Verification statistics.
    pub stats: VerifyStats,
}

impl Report {
    /// A clean report with statistics.
    #[must_use]
    pub fn clean(stats: VerifyStats) -> Self {
        Self { verdict: Verdict::Clean, findings: Vec::new(), stats }
    }

    /// A rejection carrying its structured [`RejectReason`].
    #[must_use]
    pub fn rejected(reason: impl Into<RejectReason>) -> Self {
        Self {
            verdict: Verdict::Rejected,
            findings: vec![Finding::PoxRejected { reason: reason.into() }],
            stats: VerifyStats::default(),
        }
    }

    /// An attack report.
    #[must_use]
    pub fn attack(findings: Vec<Finding>, stats: VerifyStats) -> Self {
        Self { verdict: Verdict::Attack, findings, stats }
    }

    /// Is the execution proven benign?
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.verdict == Verdict::Clean
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.verdict {
            Verdict::Clean => write!(
                f,
                "CLEAN ({} insns emulated, {} log bytes: {} cf / {} input / {} arg entries)",
                self.stats.emulated_insns,
                self.stats.log_bytes_used,
                self.stats.cf_entries,
                self.stats.input_entries,
                self.stats.arg_entries
            ),
            Verdict::Rejected | Verdict::Attack => {
                let label = if self.verdict == Verdict::Rejected { "REJECTED" } else { "ATTACK" };
                write!(f, "{label}:")?;
                for finding in &self.findings {
                    write!(f, "\n  - {finding}")?;
                }
                Ok(())
            }
        }
    }
}

/// One proof's verdict within a batch.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BatchOutcome {
    /// Position of the job in the submitted batch.
    pub index: usize,
    /// Caller-assigned device identifier (opaque to the verifier).
    pub device_id: u64,
    /// The full per-proof report.
    pub report: Report,
}

/// Aggregate statistics for one batch-verification run.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct BatchStats {
    /// Jobs submitted.
    pub total: usize,
    /// Proofs verified clean.
    pub clean: usize,
    /// Proofs whose cryptographic PoX check failed.
    pub rejected: usize,
    /// Proofs with valid PoX but a reconstructed attack.
    pub attacks: usize,
    /// Wall-clock time for the whole batch.
    pub wall: std::time::Duration,
    /// Throughput over the wall-clock time.
    pub proofs_per_sec: f64,
    /// Total instructions abstractly executed across all proofs.
    pub emulated_insns: usize,
}

/// The verifier's answer for a whole batch of proofs.
#[derive(Clone, PartialEq, Debug)]
pub struct BatchReport {
    /// Per-proof outcomes, ordered by submission index.
    pub outcomes: Vec<BatchOutcome>,
    /// Aggregate statistics.
    pub stats: BatchStats,
}

impl BatchReport {
    /// Did every proof in the batch verify clean?
    #[must_use]
    pub fn all_clean(&self) -> bool {
        self.outcomes.iter().all(|o| o.report.is_clean())
    }

    /// The report for the job submitted at `index`.
    #[must_use]
    pub fn report(&self, index: usize) -> Option<&Report> {
        self.outcomes.get(index).map(|o| &o.report)
    }

    /// Outcomes that are not clean (attacks and rejections), for triage.
    pub fn flagged(&self) -> impl Iterator<Item = &BatchOutcome> {
        self.outcomes.iter().filter(|o| !o.report.is_clean())
    }
}

impl fmt::Display for BatchReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = &self.stats;
        write!(
            f,
            "batch: {} proofs in {:.1?} ({:.0} proofs/s) — {} clean / {} attack / {} rejected",
            s.total, s.wall, s.proofs_per_sec, s.clean, s.attacks, s.rejected
        )?;
        for o in self.flagged() {
            write!(f, "\n  #{} dev={}: {}", o.index, o.device_id, o.report)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_reason_maps_onto_its_class_and_indexes_densely() {
        let reasons = [
            RejectReason::RegionMismatch,
            RejectReason::ExecClear,
            RejectReason::ErLengthMismatch,
            RejectReason::OrLengthMismatch,
            RejectReason::MacMismatch,
            RejectReason::NotFullyInstrumented,
            RejectReason::UnknownKey { device: 3 },
            RejectReason::MalformedSubmission { detail: "x".into() },
            RejectReason::SessionViolation { detail: "y".into() },
            RejectReason::UnknownPrincipal { detail: "z".into() },
            RejectReason::Overloaded { pending: 9 },
        ];
        assert_eq!(reasons.len(), RejectClass::ALL.len());
        for (i, reason) in reasons.iter().enumerate() {
            assert_eq!(reason.class(), RejectClass::ALL[i]);
            assert_eq!(reason.class().index(), i);
        }
        // Labels are distinct (corpus case files key on them).
        let mut labels: Vec<_> = RejectClass::ALL.iter().map(|c| c.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), RejectClass::ALL.len());
    }

    #[test]
    fn display_forms() {
        let r = Report::rejected(RejectReason::MacMismatch);
        assert!(r.to_string().contains("REJECTED"));
        assert!(r.to_string().contains("MAC verification failed"));
        assert!(!r.is_clean());

        // PoX-layer rejections convert losslessly into the shared enum.
        let r = Report::rejected(apex::PoxRejection::ExecClear);
        assert_eq!(r.findings, vec![Finding::PoxRejected { reason: RejectReason::ExecClear }]);

        let r = Report::attack(
            vec![Finding::ReturnHijack { at: 0xE010, expected: 0xE020, actual: 0xE004 }],
            VerifyStats::default(),
        );
        assert!(r.to_string().contains("hijack"));

        let r = Report::clean(VerifyStats { emulated_insns: 10, ..Default::default() });
        assert!(r.is_clean());
        assert!(r.to_string().contains("CLEAN"));
    }
}
