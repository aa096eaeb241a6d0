//! A fixed piece of work in which the engine has no part, timed beside the
//! workload so that a run knows how fast its box was while it measured.
//!
//! The box this benchmark was written on is a guest of a shared host. For
//! minutes on end the host runs the guest 20–40 % slower, and in its worst
//! spells it also takes the processors away for up to a fifth of the time
//! (`steal` in `/proc/stat`). Ten runs of unchanged code then spread by
//! 15–50 % of their median on every timed metric, and the slices below slow
//! down by the same share. So every time the benchmark reports is scaled to
//! a box on which a slice takes its nominal time; the README has the
//! numbers.

use crate::rng::Rng;
use crate::stats::{mean, percentile, sorted};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// What a slice takes on the box the bounds were set on, while it is quiet:
/// the lower quartile of a run's slices, and their mean. Only units: they
/// make a scaled time read as a time of that box.
pub const NOMINAL_QUARTILE_MS: f64 = 0.4;
pub const NOMINAL_MEAN_MS: f64 = 0.5;

/// One slice: generate, sort, index and fold a few thousand integers —
/// branches, allocation and pointer chasing in the near caches, which is
/// what the engine's exact arithmetic and maps are made of. (A slice of pure
/// arithmetic on 16 KiB did not slow down when the workloads did.) Returns
/// its wall time in milliseconds.
pub fn slice() -> f64 {
    let t = Instant::now();
    let mut rng = Rng::fork(0x5eed, "calibration");
    let mut v: Vec<u64> = (0..8192).map(|_| rng.next_u64()).collect();
    v.sort_unstable();
    let mut index = BTreeMap::new();
    for (i, x) in v.iter().enumerate().step_by(4) {
        index.insert(x.rotate_left(17), vec![i as u64; 3]);
    }
    let mut acc = 0u64;
    for (k, w) in &index {
        acc = acc.wrapping_mul(31).wrapping_add(k ^ w[0]);
    }
    black_box(acc);
    t.elapsed().as_secs_f64() * 1e3
}

/// The factor that turns a time measured while `slices` ran as they did into
/// the time on the nominal box, for a time put together from the fastest of
/// several repetitions: the lower quartile of the slices moved most like
/// those did (the minimum does not move at all, and the median and the mean
/// overshoot).
pub fn scale_of_fastest(slices: &[f64]) -> f64 {
    if slices.is_empty() {
        return 1.0;
    }
    NOMINAL_QUARTILE_MS / percentile(&sorted(slices.to_vec()), 25.0)
}

/// The same for a time taken over a population of requests, which every
/// burst slows that slows the slices taken among them: their mean.
pub fn scale_of_population(slices: &[f64]) -> f64 {
    if slices.is_empty() {
        return 1.0;
    }
    NOMINAL_MEAN_MS / mean(slices)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_nominal_over_measured() {
        assert_eq!(scale_of_fastest(&[]), 1.0);
        assert_eq!(scale_of_population(&[]), 1.0);
        assert_eq!(scale_of_fastest(&[NOMINAL_QUARTILE_MS; 8]), 1.0);
        assert_eq!(scale_of_population(&[NOMINAL_MEAN_MS; 8]), 1.0);
        // A box that runs its slices at half speed halves every time.
        assert_eq!(scale_of_fastest(&[2.0 * NOMINAL_QUARTILE_MS; 8]), 0.5);
        assert_eq!(scale_of_population(&[2.0 * NOMINAL_MEAN_MS; 8]), 0.5);
        // Nearest-rank lower quartile of eight slices is the second.
        let slices = [0.9, 0.5, 0.8, 0.4, 0.7, 0.6, 1.0, 1.1];
        assert_eq!(scale_of_fastest(&slices), NOMINAL_QUARTILE_MS / 0.5);
        assert_eq!(scale_of_population(&slices), NOMINAL_MEAN_MS / 0.75);
    }
}
