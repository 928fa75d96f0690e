//! Host-speed calibration.
//!
//! A shared host's speed drifts. On a 2-vCPU container the same repetition
//! ran up to 1.6× faster in one few-second stretch than in the next, and a
//! whole 20-second run could fall inside a slow stretch, so medians within a
//! run cannot remove the drift. Every timed repetition is therefore
//! bracketed by a fixed calibration loop, and its wall times are rescaled to
//! a host on which that loop takes [`REFERENCE_NS`]. The loop is the
//! benchmark's own code and calls no simulator crate: a change to the
//! simulator moves the rescaled times exactly as much as the raw ones.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::hint::black_box;

use crate::trace::now_ns;

/// Wall time of one calibration loop on the host the scale is anchored to
/// (an uncontended 2.1 GHz x86-64 vCPU, about 5 ms).
pub const REFERENCE_NS: f64 = 5_000_000.0;

/// Iterations of the calibration loop.
const ITERATIONS: u64 = 40_000;

/// Runs the calibration loop once and returns its wall time in ns.
///
/// The loop does the kinds of work the simulator does most: ordered-map
/// updates, heap pushes and pops, and small allocations, over a working set
/// of a few hundred KiB. Its inputs are fixed, so its work never changes.
pub fn loop_ns() -> u64 {
    let t0 = now_ns();
    let mut state = 0x1234_5678u64;
    let mut next = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut lists: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    let mut heap = BinaryHeap::new();
    let mut acc = 0u64;
    for i in 0..ITERATIONS {
        let key = next() % 4096;
        let list = lists.entry(key).or_default();
        list.push(i);
        if list.len() > 4 {
            acc = acc.wrapping_add(list.iter().sum::<u64>());
            lists.remove(&key);
        }
        heap.push(Reverse(next() % 100_000));
        if heap.len() > 512 {
            acc ^= heap.pop().map_or(0, |Reverse(v)| v);
        }
    }
    black_box(acc);
    black_box(&lists);
    now_ns() - t0
}

/// The factor that rescales a wall time measured next to a calibration
/// loop of `cal_ns` to the reference host (1 when uncalibrated).
pub fn scale(cal_ns: u64) -> f64 {
    if cal_ns == 0 {
        1.0
    } else {
        REFERENCE_NS / cal_ns as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_maps_the_reference_to_one() {
        assert_eq!(scale(0), 1.0);
        assert_eq!(scale(5_000_000), 1.0);
        assert_eq!(scale(10_000_000), 0.5);
        assert!(loop_ns() > 0);
    }
}
