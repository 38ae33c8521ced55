//! The OS preemption model.
//!
//! The paper's 30-processor Raytrace runs show queue locks taking
//! "> 200 s" versus 0.7 s for the HBO family (Table 4): on a fully
//! populated machine the OS occasionally steals a CPU for a daemon, and a
//! preempted thread sitting in the middle of an MCS/CLH queue blocks every
//! thread behind it. This module reproduces that disturbance: each CPU
//! suffers preemption windows with exponentially distributed gaps and a
//! fixed quantum.

use crate::rng::SplitMix64;

/// Parameters of the preemption disturbance.
///
/// # Example
///
/// ```
/// let p = nucasim::PreemptionConfig::solaris_daemons();
/// assert!(p.mean_gap > p.quantum);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PreemptionConfig {
    /// Mean cycles between preemptions of one CPU.
    pub mean_gap: u64,
    /// Cycles a preempted thread stays off-CPU (a scheduling quantum).
    pub quantum: u64,
}

impl PreemptionConfig {
    /// Background daemon activity on an otherwise-idle Solaris box: each
    /// CPU loses a 10 ms quantum roughly every 250 ms.
    pub const fn solaris_daemons() -> PreemptionConfig {
        PreemptionConfig {
            mean_gap: 62_500_000, // 250 ms at 250 MHz
            quantum: 2_500_000,   // 10 ms
        }
    }

    /// Heavier multiprogramming: a 10 ms quantum stolen every ~50 ms.
    pub const fn multiprogrammed() -> PreemptionConfig {
        PreemptionConfig {
            mean_gap: 12_500_000,
            quantum: 2_500_000,
        }
    }

    /// Checks the parameters describe a real disturbance. `mean_gap == 0`
    /// would pin every CPU in back-to-back windows and `quantum == 0`
    /// makes every window an invisible no-op; both were previously
    /// accepted silently.
    pub fn validate(&self) -> Result<(), String> {
        if self.mean_gap == 0 {
            return Err("preemption mean_gap must be positive (got 0)".to_owned());
        }
        if self.quantum == 0 {
            return Err("preemption quantum must be positive (got 0)".to_owned());
        }
        Ok(())
    }
}

/// Per-CPU stream of preemption windows.
#[derive(Debug)]
pub(crate) struct PreemptState {
    cfg: PreemptionConfig,
    /// Start of the next window per CPU.
    next_start: Vec<u64>,
    rngs: Vec<SplitMix64>,
}

impl PreemptState {
    pub(crate) fn new(cfg: PreemptionConfig, cpus: usize, seed: &mut SplitMix64) -> PreemptState {
        let mut rngs = Vec::with_capacity(cpus);
        let mut next_start = Vec::with_capacity(cpus);
        for _ in 0..cpus {
            let mut r = seed.split();
            // `next_exp` floors nonzero-mean draws at 1, so a window can
            // never start at cycle 0.
            next_start.push(r.next_exp(cfg.mean_gap));
            rngs.push(r);
        }
        PreemptState {
            cfg,
            next_start,
            rngs,
        }
    }

    /// Start of `cpu`'s next window: [`PreemptState::adjust`] leaves any
    /// `t` below it unchanged and draws nothing.
    pub(crate) fn next_start(&self, cpu: usize) -> u64 {
        self.next_start[cpu]
    }

    /// Adjusts a wakeup scheduled at `t` for CPU `cpu`: if a preemption
    /// window *overlaps* `t`, the wakeup slides to the window's end (and
    /// may land in the next window, and so on). Windows that lie entirely
    /// in the past are skipped — a thread that slept through a window was
    /// not delayed by it. Returns `(adjusted_time, windows_applied)`.
    pub(crate) fn adjust(&mut self, cpu: usize, t: u64) -> (u64, u64) {
        let mut t = t;
        let mut applied = 0;
        loop {
            let start = self.next_start[cpu];
            if start > t {
                break;
            }
            let end = start + self.cfg.quantum;
            let gap = self.rngs[cpu].next_exp(self.cfg.mean_gap);
            self.next_start[cpu] = end + gap;
            if end > t {
                // The thread would run inside this window: it resumes
                // when the window closes.
                t = end;
                applied += 1;
            }
            // Otherwise the window fully predates the wakeup: no effect.
        }
        (t, applied)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_rejects_degenerate_configs() {
        assert!(PreemptionConfig { mean_gap: 0, quantum: 10 }
            .validate()
            .unwrap_err()
            .contains("mean_gap"));
        assert!(PreemptionConfig { mean_gap: 10, quantum: 0 }
            .validate()
            .unwrap_err()
            .contains("quantum"));
        assert!(PreemptionConfig::solaris_daemons().validate().is_ok());
        assert!(PreemptionConfig::multiprogrammed().validate().is_ok());
    }

    #[test]
    fn no_window_before_first_start_leaves_time_alone() {
        let mut seed = SplitMix64::new(1);
        let mut p = PreemptState::new(
            PreemptionConfig {
                mean_gap: 1_000_000,
                quantum: 100,
            },
            1,
            &mut seed,
        );
        let (t, n) = p.adjust(0, 1);
        // The first window almost surely starts well after cycle 1.
        assert!(n == 0 || t > 1);
    }

    #[test]
    fn window_delays_wakeup_by_quantum() {
        let mut seed = SplitMix64::new(2);
        let mut p = PreemptState::new(
            PreemptionConfig {
                mean_gap: 10,
                quantum: 1000,
            },
            1,
            &mut seed,
        );
        let first = p.next_start[0];
        let (t, n) = p.adjust(0, first);
        assert!(n >= 1);
        assert!(t >= first + 1000);
    }

    #[test]
    fn deterministic_across_constructions() {
        let cfg = PreemptionConfig {
            mean_gap: 5000,
            quantum: 100,
        };
        let mut a = PreemptState::new(cfg, 4, &mut SplitMix64::new(9));
        let mut b = PreemptState::new(cfg, 4, &mut SplitMix64::new(9));
        for cpu in 0..4 {
            for step in 1..20u64 {
                assert_eq!(a.adjust(cpu, step * 10_000), b.adjust(cpu, step * 10_000));
            }
        }
    }

    #[test]
    fn windows_advance_monotonically() {
        let mut seed = SplitMix64::new(3);
        let mut p = PreemptState::new(
            PreemptionConfig {
                mean_gap: 100,
                quantum: 10,
            },
            1,
            &mut seed,
        );
        let mut last = 0;
        for i in 1..100 {
            let (t, _) = p.adjust(0, i * 50);
            assert!(t >= last.min(i * 50));
            last = t;
        }
    }
}
