//! Virtual deadlines for stages (Eq. 8, Fig. 2).

use daris_gpu::SimDuration;

/// Splits a task's relative deadline across its stages in proportion to their
/// MRETs (Eq. 8): `D_{i,j} = mret_{i,j} / mret_i * D_i`.
///
/// Returns the *cumulative* relative deadlines, i.e. the offset from the
/// job's release by which stage `j` should have finished; the last entry
/// equals `relative_deadline` (up to rounding). If every MRET is zero the
/// deadline is split evenly.
///
/// ```
/// use daris_core::virtual_deadlines;
/// use daris_gpu::SimDuration;
///
/// let mrets = vec![SimDuration::from_millis(1), SimDuration::from_millis(3)];
/// let vd = virtual_deadlines(&mrets, SimDuration::from_millis(40));
/// assert_eq!(vd[0], SimDuration::from_millis(10));
/// assert_eq!(vd[1], SimDuration::from_millis(40));
/// ```
pub fn virtual_deadlines(
    stage_mrets: &[SimDuration],
    relative_deadline: SimDuration,
) -> Vec<SimDuration> {
    let mut cumulative = Vec::with_capacity(stage_mrets.len());
    let mret = |j: usize| stage_mrets[j];
    each_virtual_deadline(stage_mrets.len(), mret, relative_deadline, |d| cumulative.push(d));
    cumulative
}

/// [`virtual_deadlines`] without its `Vec`: hands each of the `stages`
/// cumulative deadlines to `emit`, in stage order, and reads stage `j`'s
/// MRET from `mret(j)` (twice: once for the total, once for its share).
pub(crate) fn each_virtual_deadline(
    stages: usize,
    mret: impl Fn(usize) -> SimDuration,
    relative_deadline: SimDuration,
    mut emit: impl FnMut(SimDuration),
) {
    let total: f64 = (0..stages).map(|j| mret(j).as_micros_f64()).sum();
    let deadline_us = relative_deadline.as_micros_f64();
    let mut acc = 0.0;
    for j in 0..stages {
        let share = if total > 0.0 { mret(j).as_micros_f64() / total } else { 1.0 / stages as f64 };
        acc += share * deadline_us;
        if j + 1 == stages {
            // Avoid rounding drift on the last stage: it owns the full deadline.
            emit(relative_deadline);
        } else {
            emit(SimDuration::from_micros_f64(acc));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    #[test]
    fn shares_are_proportional_to_mret() {
        let vd = virtual_deadlines(&[ms(2), ms(2), ms(4), ms(2)], ms(100));
        assert_eq!(vd.len(), 4);
        assert_eq!(vd[0], ms(20));
        assert_eq!(vd[1], ms(40));
        assert_eq!(vd[2], ms(80));
        assert_eq!(vd[3], ms(100));
    }

    #[test]
    fn cumulative_deadlines_are_monotone_and_end_at_deadline() {
        let vd = virtual_deadlines(&[ms(5), ms(1), ms(7)], ms(33));
        for w in vd.windows(2) {
            assert!(w[0] <= w[1]);
        }
        assert_eq!(*vd.last().unwrap(), ms(33));
    }

    #[test]
    fn zero_mrets_split_evenly() {
        let vd = virtual_deadlines(&[SimDuration::ZERO; 4], ms(40));
        assert_eq!(vd[0], ms(10));
        assert_eq!(vd[3], ms(40));
    }

    #[test]
    fn empty_and_single_stage() {
        assert!(virtual_deadlines(&[], ms(10)).is_empty());
        let vd = virtual_deadlines(&[ms(3)], ms(10));
        assert_eq!(vd, vec![ms(10)]);
    }
}
