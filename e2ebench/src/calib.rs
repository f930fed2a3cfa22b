//! A fixed reference computation that gauges the host's current speed.
//!
//! The benchmark runs on shared virtual machines whose speed drifts by a
//! third and more within seconds to minutes, with the CPU time of the
//! process tracking its wall time, so that the median of a whole run still
//! lands where the host happened to be. The gauge times one round of fixed
//! work in short samples: a burst of them between passes, and one at op
//! boundaries inside a pass whenever `CADENCE` has passed since the last.
//! The samples from a pass and the bursts on either side of it tell how
//! fast the host ran during that pass (`slowdown`), and the host-time
//! metrics are scaled to the reference speed `REFERENCE_S`. The gauge uses none of the
//! repository's crates, so a change to them moves the pass times and not
//! the gauge.
//!
//! Its work is hashing integers into a map of 8192 counters and building
//! an ordered map of short formatted strings. Of the kernels tried (also
//! sorting, an event heap with floating-point accumulation and nested
//! vectors), these two together tracked the pass times of all three
//! workloads closest to one for one; see README.md, "Steadiness".

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Seconds one round takes on the reference host, a 2-core x86-64 virtual
/// machine (Intel Xeon, 2.1 GHz), rounded from its usual samples.
/// Host-time metrics are reported as if every pass ran at that speed.
pub const REFERENCE_S: f64 = 0.0025;

/// Samples in a burst between passes.
const BURST: usize = 8;

/// Least time between two samples taken inside a pass.
const CADENCE: Duration = Duration::from_millis(40);

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// One round of the reference work; returns a checksum so that nothing is
/// optimized away.
fn round(seed: u64) -> u64 {
    let mut x = seed | 1;
    let mut counts: HashMap<u64, u64> = HashMap::new();
    for i in 0..1u64 << 15 {
        *counts.entry(xorshift(&mut x) & 0x1fff).or_default() += i;
    }

    let mut tree = BTreeMap::new();
    for i in 0..4000u64 {
        let k = xorshift(&mut x) % 3000;
        tree.entry(k)
            .or_insert_with(Vec::new)
            .push(format!("{i}:{k}"));
    }
    let text: usize = tree.values().flatten().map(String::len).sum();

    counts.values().fold(text as u64, |a, &c| a ^ c)
}

/// Times one round, in seconds.
fn sample() -> f64 {
    let t0 = Instant::now();
    black_box(round(black_box(0x9e37_79b9_7f4a_7c15)));
    t0.elapsed().as_secs_f64()
}

/// A burst of samples, taken between passes.
pub fn burst() -> Vec<f64> {
    (0..BURST).map(|_| sample()).collect()
}

/// The host's speed over `samples` relative to the reference host: the
/// mean sample, without its fastest and slowest fifth (a sample the
/// scheduler cut into says nothing about the pass around it), over
/// `REFERENCE_S`. Host time divided by it reads as reference time.
pub fn slowdown(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let cut = s.len() / 5;
    let kept = &s[cut..s.len() - cut];
    kept.iter().sum::<f64>() / kept.len() as f64 / REFERENCE_S
}

struct Ticks {
    last: Instant,
    samples: Vec<f64>,
    spent: Duration,
}

static TICKS: Mutex<Option<Ticks>> = Mutex::new(None);

fn ticks() -> std::sync::MutexGuard<'static, Option<Ticks>> {
    TICKS.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Starts sampling inside a pass: from now on `tick` takes samples.
pub fn start() {
    *ticks() = Some(Ticks {
        last: Instant::now(),
        samples: Vec::new(),
        spent: Duration::ZERO,
    });
}

/// Stops sampling; returns the samples `tick` took since `start` and the
/// seconds it spent taking them.
pub fn stop() -> (Vec<f64>, f64) {
    ticks()
        .take()
        .map_or((Vec::new(), 0.0), |t| (t.samples, t.spent.as_secs_f64()))
}

/// Called at op boundaries: takes a sample if sampling is on and `CADENCE`
/// has passed since the last one. Ops time themselves after this returns.
pub fn tick() {
    let due = ticks()
        .as_ref()
        .is_some_and(|t| t.last.elapsed() >= CADENCE);
    if !due {
        return;
    }
    let t0 = Instant::now();
    let s = sample();
    if let Some(t) = ticks().as_mut() {
        t.samples.push(s);
        t.spent += t0.elapsed();
        t.last = Instant::now();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_is_one_at_the_reference_speed_and_drops_outliers() {
        let mut samples = vec![REFERENCE_S; 8];
        assert!((slowdown(&samples) - 1.0).abs() < 1e-12);
        samples[0] = 100.0 * REFERENCE_S;
        samples[1] = 0.0;
        assert!((slowdown(&samples) - 1.0).abs() < 1e-12);
        assert!((slowdown(&[2.0 * REFERENCE_S; 3]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn ticks_sample_only_between_start_and_stop() {
        tick();
        start();
        std::thread::sleep(CADENCE);
        tick();
        tick();
        let (samples, spent) = stop();
        assert_eq!(samples.len(), 1);
        assert!(spent >= samples[0]);
        tick();
        assert_eq!(stop().0.len(), 0);
    }
}
