//! Order statistics, the counters digest, and the seeded arrival schedule.

use std::time::Duration;

use rand::{rngs::StdRng, Rng, SeedableRng};

/// Nearest-rank percentile of an ascending-sorted sample: the smallest value
/// with at least `p` percent of the sample at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the nearest-rank `p`-th percentile's rank. A tail
/// percentile is only reported when at least [`MIN_TAIL_SAMPLES`] lie there.
pub fn samples_beyond(len: usize, p: f64) -> usize {
    len - ((p / 100.0 * len as f64).ceil() as usize).min(len)
}

/// The "at least ten samples beyond it" rule for a reported tail percentile.
pub const MIN_TAIL_SAMPLES: usize = 10;

pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// The conventional median (the mean of the two middle values of an even
/// count): with two windows, neither the faster nor the slower wins.
pub fn median(values: Vec<f64>) -> f64 {
    let sorted = sorted(values);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// FNV-1a over a sequence of counts: the `counters_digest`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn fold(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// An independent generator for one named part of a workload, so that adding
/// a draw to one part never shifts the inputs of another.
pub fn sub_rng(seed: u64, part: &str, index: u64) -> StdRng {
    let mut digest = Digest::new();
    digest.fold(seed);
    for byte in part.bytes() {
        digest.fold(u64::from(byte));
    }
    digest.fold(index);
    StdRng::seed_from_u64(digest.0)
}

/// One open-loop arrival: when the request is due (from the start of the
/// phase) and which tenant sends it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    pub due: Duration,
    pub tenant: u64,
}

/// Seeded Poisson arrivals at `rate` per second for `duration`, each from a
/// uniformly drawn tenant. Due times are fixed before the run starts, so a
/// slow server cannot slow the offered load down.
pub fn arrival_schedule(
    rng: &mut StdRng,
    rate: f64,
    duration: Duration,
    tenants: u64,
) -> Vec<Arrival> {
    let mut arrivals = Vec::new();
    let mut at = 0.0;
    loop {
        // Inverse-CDF exponential draw; 1 - u is in (0, 1].
        at += -(1.0 - rng.gen::<f64>()).ln() / rate;
        if at >= duration.as_secs_f64() {
            return arrivals;
        }
        arrivals.push(Arrival {
            due: Duration::from_secs_f64(at),
            tenant: rng.gen_range(0..tenants),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let sample: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&sample, 50.0), 5.0);
        assert_eq!(percentile(&sample, 90.0), 9.0);
        assert_eq!(percentile(&sample, 91.0), 10.0);
        assert_eq!(percentile(&sample, 100.0), 10.0);
        assert_eq!(percentile(&sample, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn p90_needs_a_hundred_samples_for_ten_beyond() {
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(samples_beyond(99, 90.0), 9);
        assert_eq!(samples_beyond(150, 90.0), 15);
        assert!(samples_beyond(150, 99.0) < MIN_TAIL_SAMPLES);
        assert_eq!(samples_beyond(10, 100.0), 0);
    }

    #[test]
    fn arrival_schedule_is_seeded_and_fixed_in_advance() {
        let draw = |seed| {
            arrival_schedule(
                &mut sub_rng(seed, "arrivals", 0),
                200.0,
                Duration::from_secs(5),
                128,
            )
        };
        let a = draw(7);
        // Same seed, same schedule: nothing measured at run time (service
        // time least of all) feeds back into a due time.
        assert_eq!(a, draw(7));
        assert_ne!(a, draw(8));
        assert!(a.windows(2).all(|w| w[0].due <= w[1].due));
        assert!(a
            .iter()
            .all(|x| x.due < Duration::from_secs(5) && x.tenant < 128));
        // 200/s for 5 s: 1000 expected, standard deviation ~32.
        assert!((850..1150).contains(&a.len()), "{} arrivals", a.len());
    }

    #[test]
    fn digest_depends_on_values_and_order() {
        let fold = |values: &[u64]| {
            let mut d = Digest::new();
            values.iter().for_each(|v| d.fold(*v));
            d.hex()
        };
        assert_eq!(fold(&[1, 2, 3]), fold(&[1, 2, 3]));
        assert_ne!(fold(&[1, 2, 3]), fold(&[3, 2, 1]));
        assert_ne!(fold(&[1, 2, 3]), fold(&[1, 2, 4]));
    }
}
