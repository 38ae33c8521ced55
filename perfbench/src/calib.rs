//! Host-speed calibration.
//!
//! On a shared host the same work can take 20–40% longer from one minute
//! to the next (other tenants, clock changes), and a slow phase lasts
//! longer than a run. So every timed unit is bracketed by a fixed kernel
//! that belongs to the benchmark, not to the code under test, and host
//! times are reported scaled to the kernel's speed on the reference host:
//! `scaled = wall × REFERENCE_S / kernel`. The raw wall times and kernel
//! times go to the run record. Because the kernel never changes, a change
//! to the repository's code moves scaled and raw times alike.

use std::hint::black_box;
use std::time::Instant;

/// Words in the kernel's table (1 MiB: larger than L1, within L2/L3 —
/// random updates there behave like the simulator's state accesses).
const TABLE_WORDS: usize = 1 << 17;

/// Kernel iterations per sample.
const ITERS: u64 = 2_000_000;

/// One kernel sample's seconds on the reference host (Intel Xeon
/// Processor, 2 vCPUs, rustc 1.95, this package's release profile).
pub const REFERENCE_S: f64 = 0.016;

/// Runs the kernel and keeps the samples.
#[derive(Debug)]
pub struct Calibrator {
    table: Vec<u64>,
    samples: Vec<f64>,
}

impl Calibrator {
    pub fn new() -> Calibrator {
        Calibrator {
            table: vec![0; TABLE_WORDS],
            samples: Vec::new(),
        }
    }

    /// Runs the kernel once; returns its seconds.
    pub fn sample(&mut self) -> f64 {
        let t = Instant::now();
        black_box(kernel(&mut self.table));
        let secs = t.elapsed().as_secs_f64();
        self.samples.push(secs);
        secs
    }

    /// Every kernel sample so far, in seconds.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

/// `secs` scaled to the reference host by the kernel samples taken just
/// before and just after it.
pub fn scale(secs: f64, before: f64, after: f64) -> f64 {
    secs * REFERENCE_S * 2.0 / (before + after)
}

/// Pseudo-random read-modify-writes over the table with a data-dependent
/// branch: the integer, cache and branch mix of an event-driven
/// simulator, in a fixed amount of work.
fn kernel(table: &mut [u64]) -> u64 {
    table.fill(0);
    let mask = table.len() - 1;
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0u64;
    for i in 0..ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let j = (x as usize) & mask;
        table[j] = table[j].wrapping_add(x);
        if table[j] & 1 == 0 {
            acc = acc.wrapping_add(table[(j * 7) & mask]);
        } else {
            acc ^= i;
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_reports_reference_host_seconds() {
        // The reference host itself: wall time unchanged.
        assert!((scale(3.0, REFERENCE_S, REFERENCE_S) - 3.0).abs() < 1e-12);
        // A host running at half the reference speed takes twice as long
        // for the same work, and reports the reference host's time.
        assert!((scale(2.0, 2.0 * REFERENCE_S, 2.0 * REFERENCE_S) - 1.0).abs() < 1e-12);
        // The two bracketing samples are averaged.
        assert!((scale(1.0, REFERENCE_S, 3.0 * REFERENCE_S) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn samples_are_kept() {
        let mut c = Calibrator::new();
        let s = c.sample();
        assert_eq!(c.samples(), &[s]);
    }

    #[test]
    fn kernel_is_deterministic() {
        let mut t = vec![0; 1 << 10];
        let a = kernel(&mut t);
        assert_eq!(a, kernel(&mut t));
    }
}
