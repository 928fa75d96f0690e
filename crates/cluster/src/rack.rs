//! The rack layer of the two-level dispatch hierarchy.
//!
//! A fleet is partitioned into contiguous, balanced **racks** of devices
//! ([`rack_spans`]). Within each sync round, admission retry and
//! stage-boundary migration are *rack-local*: the dispatcher confines both
//! to the rack's device span, so per-round boundary work scales with rack
//! size, not fleet size. Racks interact only at the coarser rebalance epoch
//! (every eighth round), where the top-level dispatcher exchanges per-rack
//! load summaries and migrates queued-unstarted jobs across rack lines — in
//! fixed rack/device index order, so the hierarchy preserves the
//! byte-identical guarantee.
//!
//! With one rack the hierarchy degenerates to the flat dispatcher exactly:
//! the single rack spans the whole fleet and the cross-rack phase never
//! runs.
//!
//! A rejected job's retry candidates ([`retry_candidates`]) come from one
//! scan of its home rack's fresh loads per rejection, O(rack).

use std::ops::Range;

/// Splits `devices` into `racks` contiguous spans, balanced to within one
/// device (the first `devices % racks` racks get the extra). `racks` is
/// clamped to `1..=devices`.
pub(crate) fn rack_spans(devices: usize, racks: usize) -> Vec<Range<usize>> {
    let racks = racks.clamp(1, devices.max(1));
    let base = devices / racks;
    let extra = devices % racks;
    let mut spans = Vec::with_capacity(racks);
    let mut start = 0;
    for r in 0..racks {
        let len = base + usize::from(r < extra);
        spans.push(start..start + len);
        start += len;
    }
    spans
}

/// The rack index owning each fleet device, for a layout from
/// [`rack_spans`].
pub(crate) fn rack_of(spans: &[Range<usize>]) -> Vec<usize> {
    let mut of = Vec::new();
    for (rack, span) in spans.iter().enumerate() {
        of.resize(span.end, rack);
    }
    of
}

/// The `fanout` devices of `span` a job rejected on `home` is retried on:
/// the online devices other than `home` that have a scheduler (`load_of`
/// returns its active load, `None` without one), least loaded first, ties
/// broken by the lower device index.
pub(crate) fn retry_candidates(
    span: Range<usize>,
    home: usize,
    fanout: usize,
    online: &[bool],
    load_of: impl Fn(usize) -> Option<f64>,
) -> Vec<usize> {
    // The `fanout` best so far, ascending. Devices arrive in ascending
    // index order, so each one goes after every kept device of equal load.
    let mut best: Vec<(f64, usize)> = Vec::new();
    for d in span.filter(|&d| d != home && online[d]) {
        let Some(load) = load_of(d) else { continue };
        let at = best.partition_point(|(kept, _)| kept.total_cmp(&load).is_le());
        if at < fanout {
            best.insert(at, (load, d));
            best.truncate(fanout);
        }
    }
    best.into_iter().map(|(_, d)| d).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatcher::RETRY_FANOUT;

    #[test]
    fn spans_are_contiguous_and_balanced() {
        assert_eq!(rack_spans(8, 1), vec![0..8]);
        assert_eq!(rack_spans(8, 4), vec![0..2, 2..4, 4..6, 6..8]);
        assert_eq!(rack_spans(10, 4), vec![0..3, 3..6, 6..8, 8..10]);
        // Clamped: more racks than devices, and zero racks.
        assert_eq!(rack_spans(3, 8), vec![0..1, 1..2, 2..3]);
        assert_eq!(rack_spans(3, 0), vec![0..3]);
        assert_eq!(rack_spans(0, 4), vec![0..0]);
    }

    #[test]
    fn rack_of_inverts_layout() {
        let of = rack_of(&rack_spans(10, 3));
        assert_eq!(of, vec![0, 0, 0, 0, 1, 1, 1, 2, 2, 2]);
    }

    #[test]
    fn retry_candidates_are_the_least_loaded_eligible_devices() {
        // A 10-device fleet and a rack spanning devices 1..9: device 3 is
        // offline, device 6 has no scheduler, and 2, 4, 5 and 8 tie at the
        // lowest load of the eligible devices.
        let loads = [0.0, 0.9, 0.1, 0.0, 0.1, 0.1, 0.0, 0.5, 0.1, 0.0];
        let mut online = [true; 10];
        online[3] = false;
        let load_of = |d: usize| (d != 6).then_some(loads[d]);

        // Equal loads break ties by the lower index; at most the fan-out.
        let picked = retry_candidates(1..9, 7, RETRY_FANOUT, &online, load_of);
        assert_eq!(picked, vec![2, 4, 5, 8]);
        assert_eq!(picked.len(), RETRY_FANOUT);

        // The home device is never a candidate, however idle; neither are
        // offline or scheduler-less devices. Devices outside the span are
        // never scanned.
        let all = retry_candidates(1..9, 2, usize::MAX, &online, load_of);
        assert_eq!(all, vec![4, 5, 8, 7, 1]);
        assert!(retry_candidates(3..4, 0, RETRY_FANOUT, &online, load_of).is_empty());
        assert!(retry_candidates(6..7, 0, RETRY_FANOUT, &online, load_of).is_empty());
    }
}
