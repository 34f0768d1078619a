//! Machine-speed calibration. This sandbox's speed shifts by 15-30 % for
//! seconds to minutes at a time (a shared host), far more than the 10 % the
//! benchmark has to resolve, and no statistic over one run can remove a shift
//! that outlasts the run. So a fixed kernel is timed every quarter second,
//! between requests, and every duration is scaled by `reference time / kernel
//! time`: reported times are those of a machine that runs the kernel in
//! exactly [`REFERENCE_KERNEL`]. The kernel is part of the benchmark, never of
//! the program under test, and must not change once numbers are compared.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// What the kernel takes on this sandbox in its usual state: a speed of 1.
pub const REFERENCE_KERNEL: Duration = Duration::from_micros(640);
const INTERVAL: Duration = Duration::from_millis(250);

/// Allocation, ordered-map descent and sequential sums: the instruction mix
/// of the synthesis stack, in about two thirds of a millisecond.
fn kernel() -> Duration {
    let start = Instant::now();
    let mut map: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    for i in 0..8000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.entry(x % 2048).or_default().push(i);
    }
    let sum: u64 = map
        .iter()
        .map(|(k, v)| k.wrapping_add(v.iter().sum::<u64>()))
        .fold(0, u64::wrapping_add);
    std::hint::black_box(sum);
    start.elapsed()
}

#[derive(Debug)]
pub struct Calibrator {
    last: Instant,
    /// Machine speed at the last sample, relative to the reference (below 1:
    /// slower). A measured duration times this is the calibrated duration.
    pub speed: f64,
    /// Every sample so far.
    pub speeds: Vec<f64>,
    /// Time spent in the kernel, to be left out of any wall time.
    pub spent: Duration,
}

impl Calibrator {
    pub fn new() -> Self {
        let mut calibrator = Calibrator {
            last: Instant::now(),
            speed: 1.0,
            speeds: Vec::new(),
            spent: Duration::ZERO,
        };
        calibrator.sample();
        calibrator
    }

    /// Times the kernel (the best of three, to step over an interrupt).
    pub fn sample(&mut self) -> f64 {
        let start = Instant::now();
        let best = (0..3).map(|_| kernel()).min().expect("three runs");
        self.speed = REFERENCE_KERNEL.as_secs_f64() / best.as_secs_f64();
        self.speeds.push(self.speed);
        self.last = Instant::now();
        self.spent += self.last - start;
        self.speed
    }

    /// Samples if the last sample is older than the interval. Call between
    /// requests, never inside a timed one.
    pub fn tick(&mut self) -> f64 {
        if self.last.elapsed() >= INTERVAL {
            self.sample();
        }
        self.speed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speed_is_near_one_and_sampled_on_the_interval() {
        let mut calibrator = Calibrator::new();
        assert_eq!(calibrator.speeds.len(), 1);
        assert!(
            (0.1..10.0).contains(&calibrator.speed),
            "speed {}",
            calibrator.speed
        );
        calibrator.tick();
        assert_eq!(
            calibrator.speeds.len(),
            1,
            "no new sample inside the interval"
        );
        std::thread::sleep(INTERVAL);
        calibrator.tick();
        assert_eq!(calibrator.speeds.len(), 2);
        assert!(calibrator.spent > Duration::ZERO);
    }
}
