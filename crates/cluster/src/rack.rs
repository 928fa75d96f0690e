//! The rack layer of the two-level dispatch hierarchy.
//!
//! A fleet is partitioned into contiguous, balanced **racks** of devices
//! ([`rack_spans`]). Within each sync round, admission retry and
//! stage-boundary migration are *rack-local*: a [`RackDispatcher`] confines
//! both to its own device span, so per-round boundary work scales with rack
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
//! # The incremental load ordering
//!
//! Retry-candidate selection used to rescan every device's
//! `active_load_fraction` per rejected job — O(fleet) per rejection, the
//! dominant boundary cost at scale. [`LoadOrder`] replaces the rescan with
//! an ordered set rebuilt once per retry phase (O(R log R) for rack size R)
//! and updated per consultation: within a retry phase a device's load only
//! changes when the dispatcher touches it (a catch-up completing jobs, an
//! admitted retry activating one), so re-inserting exactly the touched
//! devices reproduces the full rescan bit for bit. Selection walks the set
//! in ascending `(load, device)` order — `f64::total_cmp` then index, the
//! same tie-break the scan used — making fan-out selection
//! O(fanout + log R) instead of O(R). A debug assertion cross-checks every
//! selection against the naive scan in debug builds.

use std::collections::BTreeSet;
use std::ops::Range;

/// An `f64` load ordered by `total_cmp`, so it can key a [`BTreeSet`].
/// Loads are finite fractions in practice; `total_cmp` keeps the order
/// total (and identical to the old comparator) even if they were not.
#[derive(Debug, Clone, Copy)]
pub(crate) struct OrderedLoad(pub f64);

impl PartialEq for OrderedLoad {
    fn eq(&self, other: &Self) -> bool {
        self.0.total_cmp(&other.0).is_eq()
    }
}
impl Eq for OrderedLoad {}
impl PartialOrd for OrderedLoad {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrderedLoad {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Incrementally maintained `(load, device)` ordering of one rack's
/// schedulable devices.
#[derive(Debug, Default)]
pub(crate) struct LoadOrder {
    entries: BTreeSet<(OrderedLoad, usize)>,
    /// Current load per member device, to locate a member's entry on update.
    load_of: Vec<(usize, f64)>,
}

impl LoadOrder {
    /// Rebuilds the ordering from scratch (start of a retry phase).
    pub fn rebuild(&mut self, loads: impl Iterator<Item = (usize, f64)>) {
        self.entries.clear();
        self.load_of.clear();
        for (device, load) in loads {
            self.entries.insert((OrderedLoad(load), device));
            self.load_of.push((device, load));
        }
    }

    /// Re-keys one member after the dispatcher touched it. No-op for
    /// non-members (devices without schedulers are never members).
    pub fn update(&mut self, device: usize, load: f64) {
        let Some(slot) = self.load_of.iter_mut().find(|(d, _)| *d == device) else {
            return;
        };
        self.entries.remove(&(OrderedLoad(slot.1), device));
        self.entries.insert((OrderedLoad(load), device));
        slot.1 = load;
    }

    /// The `fanout` least-loaded members other than `home`, ascending by
    /// `(load, device)` — byte-identical to a full rescan with the same
    /// tie-break.
    pub fn select(&self, home: usize, fanout: usize) -> Vec<usize> {
        self.entries.iter().filter(|(_, d)| *d != home).take(fanout).map(|(_, d)| *d).collect()
    }

    /// The selection a full rescan would produce: the debug-build oracle
    /// [`select`](Self::select) is checked against on every retry.
    pub fn naive_select(loads: &[(usize, f64)], home: usize, fanout: usize) -> Vec<usize> {
        let mut candidates: Vec<(f64, usize)> =
            loads.iter().filter(|(d, _)| *d != home).map(|(d, l)| (*l, *d)).collect();
        candidates.sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
        candidates.truncate(fanout);
        candidates.into_iter().map(|(_, d)| d).collect()
    }
}

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

/// One rack: its device span and the load ordering its admission retries
/// select from. The dispatcher drives the boundary phases; the rack owns
/// which devices they may touch.
#[derive(Debug)]
pub(crate) struct RackDispatcher {
    /// Zero-based rack index.
    pub index: usize,
    /// The contiguous fleet-device span this rack owns.
    pub span: Range<usize>,
    /// Retry-candidate ordering, rebuilt per retry phase on first use.
    pub order: LoadOrder,
}

impl RackDispatcher {
    /// Lays a fleet of `devices` out as `racks` rack dispatchers.
    pub fn layout(devices: usize, racks: usize) -> Vec<RackDispatcher> {
        rack_spans(devices, racks)
            .into_iter()
            .enumerate()
            .map(|(index, span)| RackDispatcher { index, span, order: LoadOrder::default() })
            .collect()
    }

    /// The rack index owning each fleet device, derivable from any layout.
    pub fn rack_of(racks: &[RackDispatcher]) -> Vec<usize> {
        let mut of = Vec::new();
        for rack in racks {
            of.resize(rack.span.end, rack.index);
        }
        of
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let racks = RackDispatcher::layout(10, 3);
        let of = RackDispatcher::rack_of(&racks);
        assert_eq!(of, vec![0, 0, 0, 0, 1, 1, 1, 2, 2, 2]);
    }

    #[test]
    fn select_matches_naive_scan_under_updates() {
        // A deterministic pseudo-load sequence with ties, updated piecemeal:
        // the incremental set must track the full re-sort exactly.
        let mut loads: Vec<(usize, f64)> =
            (0..16).map(|d| (d, f64::from((d as u32 * 7) % 5) / 5.0)).collect();
        let mut order = LoadOrder::default();
        order.rebuild(loads.iter().copied());
        for step in 0..64usize {
            let home = (step * 3) % 16;
            let fanout = step % 6;
            assert_eq!(
                order.select(home, fanout),
                LoadOrder::naive_select(&loads, home, fanout),
                "step {step}"
            );
            // Touch one device, like a consultation would.
            let touched = (step * 5) % 16;
            let new_load = f64::from((step as u32 * 11) % 7) / 7.0;
            loads[touched].1 = new_load;
            order.update(touched, new_load);
        }
    }

    #[test]
    fn update_ignores_non_members() {
        let mut order = LoadOrder::default();
        order.rebuild([(0usize, 0.5f64), (2, 0.1)].into_iter());
        order.update(1, 0.0); // device 1 has no scheduler: not a member
        assert_eq!(order.select(usize::MAX, 4), vec![2, 0]);
    }
}
