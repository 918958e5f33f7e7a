//! A machine-speed probe: a fixed sort-and-hash kernel that shares no
//! code with the program, timed between chunks of measured work.
//!
//! On a shared virtual machine the same work can take 25% more or less
//! time from one second to the next as neighbours load the host, and the
//! drift lasts long enough to move a whole run. The probe measures that
//! drift while it happens. Each chunk's time is divided by the probe's
//! slowdown against its nominal duration, so the reported times read as
//! if the machine ran at one fixed speed: the speed at which one probe
//! takes [`NOMINAL_NS`].
//!
//! The kernel (sort 40k keys, build a hash map, probe it) was chosen for
//! tracking the compiler best among candidates tried on a 2-vCPU KVM
//! guest: it cut the pass-to-pass spread of paper_grid compile time from
//! 17% to 3%, where an L2-resident integer loop reached 9% and a 32 MiB
//! random walk 7%. A smaller untimed run warms it first, so the program's
//! cache footprint does not change what it measures.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// Nominal duration of one timed probe run: the reference speed every
/// normalised time is expressed at. It is about the kernel's median on
/// the machine the benchmark was tuned on (a 2-vCPU KVM guest on a
/// 2.0 GHz Xeon), so normalised times read close to wall-clock times
/// there.
pub const NOMINAL_NS: f64 = 1.5e6;
/// Keys sorted per timed run.
const KEYS: usize = 40_000;

pub struct Probe {
    keys: Vec<u64>,
    map: HashMap<u64, u32, BuildHasherDefault<DefaultHasher>>,
    /// Slowdown at the previous measurement.
    last: f64,
}

impl Probe {
    /// A probe that has taken its first measurement.
    pub fn new() -> Self {
        let mut probe = Probe {
            keys: Vec::with_capacity(KEYS),
            map: HashMap::default(),
            last: 1.0,
        };
        probe.last = probe.slowdown();
        probe
    }

    fn kernel(&mut self, n: usize) -> u64 {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        self.keys.clear();
        for _ in 0..n {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.keys.push(x);
        }
        self.keys.sort_unstable();
        self.map.clear();
        for (i, &k) in self.keys.iter().enumerate().step_by(8) {
            self.map.insert(k >> 3, i as u32);
        }
        self.keys
            .iter()
            .filter_map(|k| self.map.get(&(k >> 3)))
            .map(|&i| u64::from(i))
            .sum()
    }

    /// One warm-up run, then one timed run; the timed run's duration
    /// over [`NOMINAL_NS`].
    fn slowdown(&mut self) -> f64 {
        black_box(self.kernel(KEYS / 4));
        let started = Instant::now();
        black_box(self.kernel(KEYS));
        started.elapsed().as_nanos() as f64 / NOMINAL_NS
    }

    /// Measures the machine again and returns the slowdown of the work
    /// done since the previous measurement: the mean of the two. Divide
    /// that work's time by it.
    pub fn factor(&mut self) -> f64 {
        let now = self.slowdown();
        let factor = (self.last + now) / 2.0;
        self.last = now;
        factor
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_work_is_fixed() {
        let mut p = Probe::new();
        let a = p.kernel(KEYS);
        assert_eq!(a, p.kernel(KEYS));
        assert!(p.factor() > 0.0);
    }
}
