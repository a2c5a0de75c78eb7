//! Host-disturbance probes and the round filter built on them.
//!
//! The benchmark shares a small virtual machine with whatever else the host
//! runs, and the same program measures 10–40 % slower for seconds or
//! minutes at a time. Two signals, neither of which reads anything from
//! the program under test (so the filter cannot favour a commit), say when:
//!
//! * the **ALU probe** — a frozen piece of pure ALU work that calls no
//!   repository code and lives in L1. When it runs slow, the virtual CPU
//!   itself is slow;
//! * **steal** — clock ticks the hypervisor kept this guest's CPUs from
//!   running, from `/proc/stat`.
//!
//! The probe runs before and after every timed round. A round is *quiet*
//! when nothing was stolen during it and both of its probe readings are
//! within [`KEEP_FACTOR`] of the fastest reading of the run, and the quiet
//! rounds are the ones *kept*.
//!
//! What the two cannot see is contention for memory and the shared cache,
//! which slows cache-missing work (a set-up, say) by half for a fraction
//! of a second at a time while both signals stay flat. A probe of memory
//! latency was tried and did not predict it; set-up time is instead taken
//! as a sum of per-part minima (see `measure::undisturbed_setup`).

use std::time::Instant;

/// Words in the probe's working set (32 KiB).
const WORDS: usize = 8192;
/// Passes over the working set per probe. Frozen: ≈ 1 ms on the reference
/// box. Changing it changes every `host.probe_*` number.
const PASSES: usize = 48;
/// A round is kept when both probes are ≤ this × the run's fastest probe.
pub const KEEP_FACTOR: f64 = 1.10;
/// With fewer quiet rounds than this, this many of the least disturbed
/// rounds are kept instead.
pub const MIN_KEPT: usize = 20;

/// The probe's state: its buffer and xorshift word persist across runs so
/// the optimiser cannot hoist or fold the work.
pub struct Probe {
    buf: Box<[u32; WORDS]>,
    x: u32,
}

impl Probe {
    pub fn new() -> Self {
        let mut buf = Box::new([0u32; WORDS]);
        for (i, w) in buf.iter_mut().enumerate() {
            *w = (i as u32).wrapping_mul(0x9E37_79B9) | 1;
        }
        Self { buf, x: 0x2545_F491 }
    }

    /// One probe: xorshift + multiply over the buffer, `PASSES` times.
    /// Returns the elapsed milliseconds.
    pub fn run(&mut self) -> f64 {
        let start = Instant::now();
        let mut x = self.x;
        for _ in 0..PASSES {
            for w in self.buf.iter_mut() {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                *w = w.wrapping_mul(x | 1) ^ x;
            }
        }
        self.x = std::hint::black_box(x);
        start.elapsed().as_secs_f64() * 1e3
    }
}

/// What the host did around one timed interval.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Readings {
    /// ALU probe before and after, in ms.
    pub alu: (f64, f64),
    /// Clock ticks stolen from the guest in between.
    pub steal: u64,
}

impl Probe {
    /// Reads the host before an interval; hand the result to
    /// [`Probe::after`].
    pub fn before(&mut self) -> Readings {
        let steal = crate::procfs::steal_ticks();
        Readings { alu: (self.run(), 0.0), steal }
    }

    /// Reads the host after the interval `before` was taken in front of.
    pub fn after(&mut self, before: Readings) -> Readings {
        Readings {
            alu: (before.alu.0, self.run()),
            steal: crate::procfs::steal_ticks().saturating_sub(before.steal),
        }
    }
}

/// The slowest probe reading that still counts as quiet, from the fastest
/// reading of a run.
#[derive(Clone, Copy, Debug)]
pub struct Limits {
    alu: f64,
}

impl Limits {
    pub fn of<'a>(readings: impl Iterator<Item = &'a Readings>) -> Self {
        let fastest = readings.flat_map(|r| [r.alu.0, r.alu.1]).fold(f64::INFINITY, f64::min);
        Self { alu: fastest * KEEP_FACTOR }
    }

    pub fn quiet(&self, r: &Readings) -> bool {
        r.steal == 0 && r.alu.0 <= self.alu && r.alu.1 <= self.alu
    }
}

/// Which rounds to keep, given the readings around each: the quiet ones,
/// or — when fewer than `min_kept` are quiet — the `min_kept` least
/// disturbed (fewest stolen ticks, then fastest slower probe), in round
/// order. The flag says whether the quiet ones sufficed. A run on a badly
/// disturbed host is still measured on its best moments, not on all of
/// them: all of them read 30–50 % low.
pub fn kept_rounds(readings: &[Readings], limits: &Limits, min_kept: usize) -> (Vec<usize>, bool) {
    let quiet: Vec<usize> = (0..readings.len()).filter(|&i| limits.quiet(&readings[i])).collect();
    if quiet.len() >= min_kept {
        return (quiet, true);
    }
    let mut ranked: Vec<usize> = (0..readings.len()).collect();
    ranked.sort_by(|&a, &b| {
        let key = |r: &Readings| (r.steal, r.alu.0.max(r.alu.1));
        key(&readings[a]).partial_cmp(&key(&readings[b])).expect("probe readings are not NaN")
    });
    ranked.truncate(min_kept);
    ranked.sort_unstable();
    (ranked, false)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet() -> Readings {
        Readings { alu: (1.00, 1.02), steal: 0 }
    }

    #[test]
    fn probe_does_work_and_changes_state() {
        let mut p = Probe::new();
        let before = (p.x, p.buf[17]);
        assert!(p.run() > 0.0);
        assert_ne!(before, (p.x, p.buf[17]));
    }

    #[test]
    fn a_slow_probe_on_either_side_or_any_steal_drops_the_round() {
        // Fastest probe 1.00 → limit 1.10.
        let rounds = [
            quiet(),
            Readings { alu: (1.05, 1.30), steal: 0 },
            Readings { alu: (1.20, 1.00), steal: 0 },
            Readings { alu: (1.10, 1.09), steal: 0 },
            Readings { alu: (1.11, 1.00), steal: 0 },
            Readings { steal: 1, ..quiet() },
        ];
        let limits = Limits::of(rounds.iter());
        assert_eq!(kept_rounds(&rounds, &limits, 2), (vec![0, 3], true));
    }

    #[test]
    fn too_few_quiet_rounds_fall_back_to_the_least_disturbed() {
        let rounds = [
            Readings { alu: (1.0, 1.9), steal: 0 },
            Readings { steal: 3, ..quiet() },
            quiet(),
            Readings { alu: (1.5, 1.2), steal: 0 },
            Readings { steal: 1, ..quiet() },
        ];
        let limits = Limits::of(rounds.iter());
        // One quiet round; of the rest, no steal beats any steal, and the
        // faster slower-probe wins among those.
        assert_eq!(kept_rounds(&rounds, &limits, 3), (vec![0, 2, 3], false));
        assert_eq!(kept_rounds(&rounds, &limits, 9), (vec![0, 1, 2, 3, 4], false));
        assert_eq!(kept_rounds(&[], &limits, 2), (vec![], false));
    }
}
