//! Process CPU time and allocation count over the timed phases of a round.

use crate::alloc_count::allocations;
use crate::closed::acc;
use crate::measure::Recorder;
use crate::procfs::cpu_seconds;

/// Accumulates deltas between [`Meter::begin`] and [`Meter::end`]. A meter
/// that is off does nothing, so callers bracket their phases
/// unconditionally.
pub struct Meter {
    on: bool,
    cpu_s: f64,
    allocs: u64,
    open: Option<(f64, u64)>,
}

impl Meter {
    pub fn new(on: bool) -> Self {
        Self { on, cpu_s: 0.0, allocs: 0, open: None }
    }

    pub fn begin(&mut self) {
        if self.on {
            self.open = Some((cpu_seconds(), allocations()));
        }
    }

    pub fn end(&mut self) {
        if let Some((cpu, allocs)) = self.open.take() {
            self.cpu_s += cpu_seconds() - cpu;
            self.allocs += allocations() - allocs;
        }
    }

    /// Folds what was metered into the per-layer sums, per `n` verdicts.
    pub fn record(self, rec: &mut Recorder, n: usize) {
        if self.on {
            rec.add(acc::CPU, self.cpu_s, n as f64);
            rec.add(acc::ALLOCS, self.allocs as f64, n as f64);
        }
    }
}
