//! The paper's Fig. 6 quantities, pinned to the unit.
//!
//! Code size (Fig. 6a), CPU cycles (Fig. 6b) and log bytes (Fig. 6c) are
//! deterministic on the cycle-accurate emulator, as is the instruction
//! count, so every app × instrumentation mode is compared exactly against
//! the table below. A pass, app or emulator change that moves any of them
//! shows up here as a reviewed diff of the table; no emulator refactor may
//! move a cycle count.

use dialed::pipeline::InstrumentMode::{self, CfaOnly, Full, Original};

/// (app, mode, code bytes, cycles, instructions, log bytes).
const EXPECTED: [(&str, InstrumentMode, usize, u64, usize, usize); 9] = [
    ("SyringePump", Original, 98, 885, 567, 0),
    ("SyringePump", CfaOnly, 382, 4407, 1928, 538),
    ("SyringePump", Full, 554, 4665, 2040, 578),
    ("FireSensor", Original, 110, 345, 235, 0),
    ("FireSensor", CfaOnly, 320, 1293, 604, 142),
    ("FireSensor", Full, 470, 1407, 652, 166),
    ("UltrasonicRanger", Original, 96, 2022, 987, 0),
    ("UltrasonicRanger", CfaOnly, 340, 5531, 2385, 556),
    ("UltrasonicRanger", Full, 480, 6959, 2911, 818),
];

#[test]
fn fig6_counts_are_pinned_for_every_app_and_mode() {
    let scenarios = apps::scenarios();
    assert_eq!(scenarios.len() * 3, EXPECTED.len(), "one row per app × mode");
    for (app, mode, code_bytes, cycles, insns, log_bytes) in EXPECTED {
        let s = scenarios.iter().find(|s| s.name == app).expect("scenario exists");
        let m = dialed_bench::measure(s, mode);
        let got = (m.code_bytes, m.cycles, m.insns, m.log_bytes);
        assert_eq!(got, (code_bytes, cycles, insns, log_bytes), "{app} {mode:?}");
    }
}
