//! Host-speed reference: a fixed, bench-side kernel timed between the
//! measured repetitions, used to rescale wall times to a nominal host.
//!
//! The shared 2-vCPU host this benchmark was defined on (Intel Xeon, no
//! hardware performance counters, no steal time) drifts between speed
//! states for seconds to minutes at a time, because other tenants load
//! the machine's caches and memory: one fixed campaign took 0.51–1.12 s
//! within a five-minute process. Over ten 30 s runs, plain wall-time
//! figures spread (quartile distance over median) by up to 0.28 on
//! `paper_small`, beyond the largest bound a metric may have. The kernel
//! below does hash-map, binary-heap and random memory work like the
//! simulator and slows with it, if less; dividing by its slowdown over
//! the same run, raised to [`ELASTICITY`], tracks that drift.
//!
//! The kernel shares no code with the simulator: its hash map uses the
//! standard library's table with a hasher defined here, and its buffer is
//! faulted in before the first timed sample. A change to the simulator
//! therefore leaves the kernel's time as it was, and a faster simulator
//! shows as a proportionally larger rescaled throughput.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;

/// The kernel's nominal wall seconds, a round figure at the fast end of
/// its times on the reference host. Rescaled times are seconds of a host
/// that runs the kernel in this time; the constant sets the unit, and
/// both sides of a comparison share it.
pub const NOMINAL_S: f64 = 0.0200;

/// How much more the simulator slows than the kernel when the host
/// does: a run's times are divided by its slowdown raised to this power,
/// the slowdown serving as a control variate. Over two passes of sixty
/// 30 s runs on the reference host, the slope of log wall time on log
/// slowdown was 1.3–1.8 on the single-thread workloads and 1.0–1.9 on
/// the two-thread grid (correlation 0.77–0.98); this value lies within
/// both, and most of the host's drift goes with it. The kernel's time
/// does not depend on the simulator, so any exponent leaves a comparison
/// of two builds unbiased; it only sets how much drift is removed.
pub const ELASTICITY: f64 = 1.3;

/// Words of the random-access buffer: 64 MiB, larger than the host's
/// last-level cache, as the simulator's working set is.
const BUFFER_WORDS: usize = 8 << 20;

/// Times the reference kernel and derives the run's host-speed factor.
pub struct HostProbe {
    buffer: Vec<u64>,
    samples: Vec<f64>,
}

impl Default for HostProbe {
    fn default() -> Self {
        Self::new()
    }
}

impl HostProbe {
    /// Allocates the kernel's buffer and runs the kernel once untimed, so
    /// that every timed sample finds the buffer's pages resident.
    pub fn new() -> Self {
        let mut buffer: Vec<u64> = (0..BUFFER_WORDS as u64).collect();
        black_box(kernel(&mut buffer));
        HostProbe {
            buffer,
            samples: Vec::new(),
        }
    }

    /// Runs the kernel once and records its wall seconds.
    pub fn sample(&mut self) {
        let t = Instant::now();
        black_box(kernel(&mut self.buffer));
        self.samples.push(t.elapsed().as_secs_f64());
    }

    /// Median kernel seconds over the samples taken so far.
    pub fn median_s(&self) -> f64 {
        median(&self.samples)
    }

    /// How much slower than nominal the host ran: median kernel time over
    /// [`NOMINAL_S`]. Dividing a wall time by it gives nominal seconds.
    pub fn slowdown(&self) -> f64 {
        if self.samples.is_empty() {
            1.0
        } else {
            self.median_s() / NOMINAL_S
        }
    }
}

/// A multiplicative word hasher, the kernel's own.
#[derive(Default)]
struct MulHasher(u64);

impl Hasher for MulHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x51_7C_C1_B7_27_22_0A_95);
    }
}

/// The reference work: a hash-map histogram and a bounded priority queue
/// over xorshift keys, then random read-modify-writes over `buffer`.
fn kernel(buffer: &mut [u64]) -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut map: HashMap<u64, u64, BuildHasherDefault<MulHasher>> = HashMap::default();
    for i in 0..150_000u64 {
        *map.entry(next() & 0x3_FFFF).or_insert(0) += i;
    }
    let mut heap = BinaryHeap::new();
    let mut acc = map.len() as u64;
    for _ in 0..150_000 {
        heap.push(Reverse(next()));
        if heap.len() > 20_000 {
            acc ^= heap.pop().map_or(0, |Reverse(v)| v);
        }
    }
    let mask = buffer.len() - 1;
    for _ in 0..500_000 {
        let j = next() as usize & mask;
        buffer[j] = buffer[j].wrapping_add(1);
        acc ^= buffer[(j * 7 + 3) & mask];
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_is_nominal_until_sampled_then_positive() {
        let mut probe = HostProbe::new();
        assert_eq!(probe.slowdown(), 1.0);
        probe.sample();
        probe.sample();
        assert!(probe.slowdown().is_finite() && probe.slowdown() > 0.0);
        assert_eq!(probe.slowdown(), probe.median_s() / NOMINAL_S);
    }
}
