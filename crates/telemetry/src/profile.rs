//! Wall-clock self-profiling of the cluster sync-round phases.
//!
//! This is the **nondeterministic** observability channel, and the only
//! sanctioned wall-clock site outside `daris-bench`: it measures where a
//! round spends *host* time (span fan-out, admission retries, migration
//! scan, merge) so the benchmark harness can report a per-phase breakdown.
//! Nothing here ever feeds back into simulation state — the profiler has no
//! way to influence event order, admission, or timing, so attaching it
//! cannot change a run's `summary_hash`.

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crate::event::RoundPhase;

/// Aggregate wall-clock cost of one round phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTotal {
    /// Total wall time spent in the phase.
    pub wall: Duration,
    /// Number of times the phase ran.
    pub count: u64,
}

/// Wall-clock profiler for the dispatcher's sync-round phases.
///
/// Cloning shares the accumulator. The dispatcher brackets each phase with
/// [`phase_started`](WallClockProfiler::phase_started) /
/// [`phase_finished`](WallClockProfiler::phase_finished); the benchmark
/// harness reads [`totals`](WallClockProfiler::totals) afterwards.
#[derive(Debug, Clone, Default)]
pub struct WallClockProfiler {
    state: Arc<Mutex<ProfilerState>>,
}

#[derive(Debug, Default)]
struct ProfilerState {
    open: Option<(RoundPhase, Instant)>,
    totals: [PhaseTotal; 4],
}

fn index_of(phase: RoundPhase) -> usize {
    match phase {
        RoundPhase::Span => 0,
        RoundPhase::Retry => 1,
        RoundPhase::Migration => 2,
        RoundPhase::Merge => 3,
    }
}

impl WallClockProfiler {
    /// An empty profiler.
    pub fn new() -> Self {
        WallClockProfiler::default()
    }

    fn lock(&self) -> MutexGuard<'_, ProfilerState> {
        self.state.lock().expect("profiler lock poisoned")
    }

    /// Marks the start of `phase`. Phases do not nest; starting a new phase
    /// while another is open discards the open one.
    #[allow(clippy::disallowed_methods)] // host time for the bench report; never feeds the sim
    pub fn phase_started(&self, phase: RoundPhase) {
        let now = Instant::now();
        self.lock().open = Some((phase, now));
    }

    /// Marks the end of `phase`, charging the elapsed wall time to it. A
    /// finish with no matching start is ignored.
    pub fn phase_finished(&self, phase: RoundPhase) {
        let mut state = self.lock();
        if let Some((open_phase, started)) = state.open.take() {
            if open_phase == phase {
                let slot = &mut state.totals[index_of(phase)];
                slot.wall += started.elapsed();
                slot.count += 1;
            }
        }
    }

    /// Per-phase totals, in protocol order (span, retry, migration, merge).
    pub fn totals(&self) -> [(RoundPhase, PhaseTotal); 4] {
        let state = self.lock();
        let mut out = [(RoundPhase::Span, PhaseTotal::default()); 4];
        for (slot, phase) in out.iter_mut().zip(RoundPhase::ALL) {
            *slot = (phase, state.totals[index_of(phase)]);
        }
        out
    }

    /// Number of completed rounds (count of finished span phases).
    pub fn rounds(&self) -> u64 {
        self.lock().totals[index_of(RoundPhase::Span)].count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_accumulate_wall_time_and_counts() {
        let profiler = WallClockProfiler::new();
        for _ in 0..3 {
            for phase in RoundPhase::ALL {
                profiler.phase_started(phase);
                profiler.phase_finished(phase);
            }
        }
        let totals = profiler.totals();
        assert_eq!(totals.len(), 4);
        for (phase, total) in totals {
            assert_eq!(total.count, 3, "{phase} should have run 3 times");
        }
        assert_eq!(profiler.rounds(), 3);
    }

    #[test]
    fn mismatched_finish_is_ignored() {
        let profiler = WallClockProfiler::new();
        profiler.phase_finished(RoundPhase::Merge);
        profiler.phase_started(RoundPhase::Span);
        profiler.phase_finished(RoundPhase::Merge);
        assert_eq!(profiler.rounds(), 0);
    }

    #[test]
    fn clones_share_state() {
        let profiler = WallClockProfiler::new();
        let clone = profiler.clone();
        clone.phase_started(RoundPhase::Span);
        clone.phase_finished(RoundPhase::Span);
        assert_eq!(profiler.rounds(), 1);
    }
}
