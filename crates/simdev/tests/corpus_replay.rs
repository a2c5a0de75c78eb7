//! Replays the committed attack corpus (`corpus/` at the repository
//! root) through both transport paths and pins the exact outcome
//! distribution. This is the regression gate the corpus exists for:
//! any change to the verifier, the session layer, challenge derivation,
//! or the wire codec that silently alters how a recorded attack dies —
//! or worse, lets one through — fails here.

use dialed::report::RejectClass;
use simdev::corpus::{load_dir, CorpusCase};
use simdev::replay::{replay_in_process, replay_over_net, DEVICES_PER_SCENARIO};
use simdev::ReplayStats;
use std::path::PathBuf;

fn corpus_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../corpus")
}

fn committed_corpus() -> Vec<CorpusCase> {
    load_dir(&corpus_root()).expect("committed corpus must decode cleanly")
}

/// Scenarios in the corpus (one directory each).
const SCENARIOS: usize = 3;
/// Cases per scenario: honest + 14 catalogued mutants + tag replay (which
/// reuses the honest device, hence one more case than devices).
const CASES_PER_SCENARIO: usize = DEVICES_PER_SCENARIO + 1;

fn assert_expected_distribution(stats: &ReplayStats) {
    assert_eq!(stats.cases, SCENARIOS * CASES_PER_SCENARIO);
    // Per scenario: the honest baseline and the pinned-Clean head forge.
    assert_eq!(stats.clean, 2 * SCENARIOS as u64, "{stats:?}");
    // Per scenario: CF splice, CF reorder, input branch flip.
    assert_eq!(stats.attacks, 3 * SCENARIOS as u64, "{stats:?}");
    let per_class = |c: RejectClass| stats.rejects_by_class[c.index()];
    // Tag flip, OR flip, stale challenge, stale image — everything the
    // response MAC covers.
    assert_eq!(per_class(RejectClass::Mac), 4 * SCENARIOS as u64, "{stats:?}");
    // OR truncation and extension.
    assert_eq!(per_class(RejectClass::OrLength), 2 * SCENARIOS as u64, "{stats:?}");
    // Forged region bounds.
    assert_eq!(per_class(RejectClass::Region), SCENARIOS as u64, "{stats:?}");
    // EXEC-clear forgery, interrupt window, DMA write.
    assert_eq!(per_class(RejectClass::Exec), 3 * SCENARIOS as u64, "{stats:?}");
    // The anti-replay window killing the replayed honest tag.
    assert_eq!(per_class(RejectClass::Session), SCENARIOS as u64, "{stats:?}");
    assert_eq!(
        stats.rejects_by_class.iter().sum::<u64>(),
        11 * SCENARIOS as u64,
        "unexpected reject classes: {stats:?}",
    );
}

#[test]
fn committed_corpus_replays_identically_on_both_paths() {
    let cases = committed_corpus();
    assert_eq!(cases.len(), SCENARIOS * CASES_PER_SCENARIO);

    let in_process = replay_in_process(&cases).expect("in-process replay");
    assert_expected_distribution(&in_process);

    let (networked, net) = replay_over_net(&cases).expect("networked replay");
    assert_expected_distribution(&networked);

    // The transport must be invisible: same proofs, same verdicts, same
    // per-class accounting — and the server's own counters already
    // cross-checked inside replay_over_net.
    assert_eq!(in_process, networked);
    assert_eq!(net.total_rejects(), 11 * SCENARIOS as u64);
    assert_eq!(net.rejects_by_class, in_process.rejects_by_class);
}

#[test]
fn corpus_cases_are_unique_and_well_formed() {
    let cases = committed_corpus();
    let mut sessions: Vec<u64> = cases.iter().map(|c| c.challenge.session).collect();
    sessions.dedup();
    assert_eq!(sessions.len(), cases.len(), "duplicate session ids in corpus");
    for case in &cases {
        assert_eq!(case.challenge.session, case.submit.body.session, "{}", case.id());
        assert_eq!(case.challenge.device, case.submit.body.device, "{}", case.id());
        assert!(!case.expect.is_empty(), "{}: no recorded expectation", case.id());
        // The codec is canonical and its bytes are pinned: re-encoding a
        // decoded case reproduces its file exactly.
        let file = corpus_root().join(&case.scenario).join(format!("{}.case", case.name));
        let bytes = std::fs::read(&file).unwrap();
        assert!(case.encode() == bytes, "{}: re-encodes to other bytes", case.id());
    }
}
