//! A fixed task that never touches the library, timed between answers
//! to measure how fast the host runs at that moment.
//!
//! On a shared 2-vCPU host the same answer's latency drifted by up to
//! 1.7× within a minute, while its ratio to this task's time moved by
//! about 4%. End-to-end times are therefore reported *at reference
//! speed*: each multiplied by [`NOMINAL_MS`] over the median reference
//! time taken around it, they read as they would on a host where the
//! task takes [`NOMINAL_MS`]. The raw times are printed beside them.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// The reference task's time on an unloaded 2-vCPU host, in ms.
pub const NOMINAL_MS: f64 = 1.2;

/// About a millisecond of the work the library does most: small
/// allocations, string hashing, and sorting.
fn task(seed: u64) -> u64 {
    let mut x = seed | 1;
    let mut map: HashMap<String, Vec<u64>> = HashMap::new();
    for i in 0..3000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let v: Vec<u64> = (0..x % 16 + 1).map(|j| x.wrapping_mul(j + 1)).collect();
        map.insert(format!("k{}_{}", x % 1000, i % 7), v);
    }
    let mut keys: Vec<&String> = map.keys().collect();
    keys.sort();
    keys.iter()
        .map(|k| map[*k].iter().sum::<u64>() ^ k.len() as u64)
        .fold(0, u64::wrapping_add)
}

/// Wall time of the faster of two runs of the task, in ms. The first
/// run after a large answer pays for the memory that answer freed (five
/// times the usual time after a SOBEL `guided` answer); the second does
/// not.
pub fn sample() -> f64 {
    let once = || {
        let started = Instant::now();
        black_box(task(black_box(1)));
        started.elapsed().as_secs_f64() * 1e3
    };
    once().min(once())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_is_deterministic_and_sampled() {
        assert_eq!(task(1), task(1));
        assert_ne!(task(1), task(2));
        assert!(sample() > 0.0);
    }
}
