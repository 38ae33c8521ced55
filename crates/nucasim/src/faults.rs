//! Composable fault injection: deterministic disturbances layered onto a
//! run.
//!
//! The OS preemption model ([`crate::PreemptionConfig`]) reproduces the
//! paper's *background* disturbance — daemons stealing quanta at random.
//! The fault layers here model sharper, adversarial conditions that real
//! NUCA deployments hit and that Table 4's queue-lock collapse hinges on:
//!
//! - **Lock-holder-targeted preemption** ([`HolderPreemptConfig`]): with a
//!   configurable probability, the CPU that just acquired a lock loses a
//!   scheduling quantum *while holding it* — the precise scenario that
//!   stalls every thread queued behind an MCS/CLH holder.
//! - **Thread migration** ([`MigrationConfig`]): a CPU's thread is
//!   re-homed to the next node mid-run, invalidating the node affinity
//!   HBO's node-id heuristic and `is_spinning` slots assume.
//! - **Asymmetric memory** ([`SlowNodeConfig`]): one node serves its
//!   transfers slower by a constant factor (a failed DIMM bank, a
//!   thermally throttled socket), skewing the NUCA ratio per node.
//! - **Latency jitter** ([`JitterConfig`]): bounded uniform noise on every
//!   coherence transaction, so backoff tunings cannot overfit exact
//!   latencies.
//!
//! All layers draw from [`SplitMix64`] streams derived from the machine
//! seed, so a faulted run is exactly reproducible — and when every layer
//! is disabled the engine takes no draw and produces bit-identical results
//! to a build without this module.

use nuca_topology::CpuId;

use crate::rng::SplitMix64;

/// Lock-holder-targeted preemption bursts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HolderPreemptConfig {
    /// Probability, in thousandths, that an acquisition marks the new
    /// holder for preemption (1..=1000).
    pub per_mille: u32,
    /// Cycles the marked holder stays off-CPU, applied at its next resume
    /// (while it still holds the lock).
    pub quantum: u64,
}

/// Thread-to-node migration events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationConfig {
    /// Mean cycles between migrations of one CPU (exponentially
    /// distributed, per-CPU stream).
    pub mean_gap: u64,
    /// Cycles the migrating thread is off-CPU while the OS moves it.
    pub pause: u64,
}

/// Per-node asymmetric memory latency: one slow node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlowNodeConfig {
    /// Index of the slow node.
    pub node: usize,
    /// Multiplier applied to transfers served by that node (≥ 2 to be a
    /// disturbance; 1 is a no-op and rejected).
    pub factor: u64,
}

/// Bounded uniform jitter on coherence-transaction latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JitterConfig {
    /// Maximum extra cycles added to each non-hit transaction (uniform in
    /// `[0, max_extra]`).
    pub max_extra: u64,
}

/// The full fault-injection surface of a run; every layer is optional and
/// independently composable.
///
/// # Example
///
/// ```
/// use nucasim::{FaultConfig, HolderPreemptConfig, MachineConfig};
///
/// let faults = FaultConfig::none()
///     .with_holder_preempt(HolderPreemptConfig { per_mille: 50, quantum: 100_000 });
/// let cfg = MachineConfig::wildfire(2, 4).with_faults(faults);
/// assert!(cfg.faults.unwrap().validate(2).is_ok());
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultConfig {
    /// Preempt the lock holder with some probability per acquisition.
    pub holder_preempt: Option<HolderPreemptConfig>,
    /// Migrate threads between nodes mid-run.
    pub migration: Option<MigrationConfig>,
    /// Make one node's transfers uniformly slower.
    pub slow_node: Option<SlowNodeConfig>,
    /// Add bounded noise to every transaction latency.
    pub jitter: Option<JitterConfig>,
}

impl FaultConfig {
    /// No fault layers enabled (identical to running without faults).
    pub const fn none() -> FaultConfig {
        FaultConfig {
            holder_preempt: None,
            migration: None,
            slow_node: None,
            jitter: None,
        }
    }

    /// Whether any layer is enabled.
    pub fn is_active(&self) -> bool {
        self.holder_preempt.is_some()
            || self.migration.is_some()
            || self.slow_node.is_some()
            || self.jitter.is_some()
    }

    /// Enables lock-holder-targeted preemption.
    #[must_use]
    pub fn with_holder_preempt(mut self, c: HolderPreemptConfig) -> FaultConfig {
        self.holder_preempt = Some(c);
        self
    }

    /// Enables thread migration.
    #[must_use]
    pub fn with_migration(mut self, c: MigrationConfig) -> FaultConfig {
        self.migration = Some(c);
        self
    }

    /// Enables one slow node.
    #[must_use]
    pub fn with_slow_node(mut self, c: SlowNodeConfig) -> FaultConfig {
        self.slow_node = Some(c);
        self
    }

    /// Enables latency jitter.
    #[must_use]
    pub fn with_jitter(mut self, c: JitterConfig) -> FaultConfig {
        self.jitter = Some(c);
        self
    }

    /// Checks every enabled layer describes a real disturbance on a
    /// machine with `num_nodes` nodes. Degenerate parameters (zero gaps,
    /// zero quanta, factor-1 slowdowns, out-of-range nodes) are rejected
    /// with a message naming the offending field rather than silently
    /// doing nothing.
    pub fn validate(&self, num_nodes: usize) -> Result<(), String> {
        if let Some(h) = self.holder_preempt {
            if h.per_mille == 0 || h.per_mille > 1000 {
                return Err(format!(
                    "holder_preempt per_mille must be in 1..=1000 (got {})",
                    h.per_mille
                ));
            }
            if h.quantum == 0 {
                return Err("holder_preempt quantum must be positive (got 0)".to_owned());
            }
        }
        if let Some(m) = self.migration {
            if m.mean_gap == 0 {
                return Err("migration mean_gap must be positive (got 0)".to_owned());
            }
            if num_nodes < 2 {
                return Err(format!(
                    "migration needs at least 2 nodes (machine has {num_nodes})"
                ));
            }
        }
        if let Some(s) = self.slow_node {
            if s.factor < 2 {
                return Err(format!(
                    "slow_node factor must be at least 2 (got {}; 1 is a no-op)",
                    s.factor
                ));
            }
            if s.node >= num_nodes {
                return Err(format!(
                    "slow_node index {} outside the {num_nodes}-node machine",
                    s.node
                ));
            }
        }
        if let Some(j) = self.jitter {
            if j.max_extra == 0 {
                return Err("jitter max_extra must be positive (got 0)".to_owned());
            }
        }
        Ok(())
    }
}

/// Per-CPU migration schedule.
#[derive(Debug)]
pub(crate) struct MigrationState {
    pub(crate) mean_gap: u64,
    pub(crate) pause: u64,
    /// Time of the next migration per CPU.
    pub(crate) next: Vec<u64>,
    rngs: Vec<SplitMix64>,
}

impl MigrationState {
    /// Advances CPU `cpu` past its just-fired migration, drawing the next
    /// gap from that CPU's stream.
    pub(crate) fn rearm(&mut self, cpu: usize) {
        let gap = self.rngs[cpu].next_exp(self.mean_gap);
        self.next[cpu] = self.next[cpu] + self.pause + gap;
    }
}

/// Runtime state of the engine-side fault layers (holder preemption and
/// migration; the memory-side layers live in the memory system).
#[derive(Debug)]
pub(crate) struct FaultState {
    holder: Option<HolderPreemptConfig>,
    /// One shared stream for acquisition draws — acquisitions are totally
    /// ordered by the event order, so this is deterministic.
    holder_rng: SplitMix64,
    /// Cycles each CPU must lose at its next resume (holder bursts).
    pub(crate) pending_delay: Vec<u64>,
    pub(crate) migration: Option<MigrationState>,
}

impl FaultState {
    pub(crate) fn new(cfg: &FaultConfig, cpus: usize, seed: &mut SplitMix64) -> FaultState {
        let holder_rng = seed.split();
        let migration = cfg.migration.map(|m| {
            let mut rngs = Vec::with_capacity(cpus);
            let mut next = Vec::with_capacity(cpus);
            for _ in 0..cpus {
                let mut r = seed.split();
                next.push(r.next_exp(m.mean_gap));
                rngs.push(r);
            }
            MigrationState {
                mean_gap: m.mean_gap,
                pause: m.pause,
                next,
                rngs,
            }
        });
        FaultState {
            holder: cfg.holder_preempt,
            holder_rng,
            pending_delay: vec![0; cpus],
            migration,
        }
    }

    /// Called by [`crate::CpuCtx::record_acquire`]: with the configured
    /// probability, marks the new holder to lose a quantum at its next
    /// resume — i.e. mid-critical-section. Returns whether it did.
    pub(crate) fn on_acquire(&mut self, cpu: CpuId) -> bool {
        if let Some(h) = self.holder {
            if self.holder_rng.next_below(1000) < u64::from(h.per_mille) {
                self.pending_delay[cpu.index()] = h.quantum;
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_inactive_and_valid() {
        let f = FaultConfig::none();
        assert!(!f.is_active());
        assert_eq!(f, FaultConfig::default());
        assert!(f.validate(1).is_ok());
    }

    #[test]
    fn builders_compose() {
        let f = FaultConfig::none()
            .with_holder_preempt(HolderPreemptConfig { per_mille: 100, quantum: 10 })
            .with_migration(MigrationConfig { mean_gap: 1000, pause: 10 })
            .with_slow_node(SlowNodeConfig { node: 1, factor: 4 })
            .with_jitter(JitterConfig { max_extra: 20 });
        assert!(f.is_active());
        assert!(f.validate(2).is_ok());
    }

    #[test]
    fn validate_rejects_degenerate_layers() {
        let bad = |f: FaultConfig, needle: &str| {
            let err = f.validate(2).unwrap_err();
            assert!(err.contains(needle), "{err:?} should mention {needle}");
        };
        bad(
            FaultConfig::none()
                .with_holder_preempt(HolderPreemptConfig { per_mille: 0, quantum: 10 }),
            "per_mille",
        );
        bad(
            FaultConfig::none()
                .with_holder_preempt(HolderPreemptConfig { per_mille: 1001, quantum: 10 }),
            "per_mille",
        );
        bad(
            FaultConfig::none()
                .with_holder_preempt(HolderPreemptConfig { per_mille: 5, quantum: 0 }),
            "quantum",
        );
        bad(
            FaultConfig::none().with_migration(MigrationConfig { mean_gap: 0, pause: 1 }),
            "mean_gap",
        );
        bad(
            FaultConfig::none().with_slow_node(SlowNodeConfig { node: 0, factor: 1 }),
            "factor",
        );
        bad(
            FaultConfig::none().with_slow_node(SlowNodeConfig { node: 2, factor: 4 }),
            "outside",
        );
        bad(
            FaultConfig::none().with_jitter(JitterConfig { max_extra: 0 }),
            "max_extra",
        );
    }

    #[test]
    fn migration_rejected_on_single_node_machine() {
        let f = FaultConfig::none().with_migration(MigrationConfig { mean_gap: 100, pause: 1 });
        assert!(f.validate(2).is_ok());
        assert!(f.validate(1).unwrap_err().contains("2 nodes"));
    }

    #[test]
    fn holder_draws_mark_roughly_per_mille_fraction() {
        let cfg = FaultConfig::none()
            .with_holder_preempt(HolderPreemptConfig { per_mille: 250, quantum: 7 });
        let mut seed = SplitMix64::new(42);
        let mut st = FaultState::new(&cfg, 1, &mut seed);
        let mut hits = 0u32;
        for _ in 0..4000 {
            st.on_acquire(CpuId(0));
            if std::mem::take(&mut st.pending_delay[0]) > 0 {
                hits += 1;
            }
        }
        // ~25% of acquisitions marked; generous tolerance.
        assert!((800..1200).contains(&hits), "hits = {hits}");
    }

    #[test]
    fn migration_schedule_deterministic_and_advancing() {
        let cfg = FaultConfig::none().with_migration(MigrationConfig { mean_gap: 500, pause: 50 });
        let mut a = FaultState::new(&cfg, 4, &mut SplitMix64::new(9));
        let mut b = FaultState::new(&cfg, 4, &mut SplitMix64::new(9));
        for cpu in 0..4 {
            let (ma, mb) = (a.migration.as_mut().unwrap(), b.migration.as_mut().unwrap());
            assert_eq!(ma.next[cpu], mb.next[cpu]);
            let before = ma.next[cpu];
            ma.rearm(cpu);
            mb.rearm(cpu);
            assert_eq!(ma.next[cpu], mb.next[cpu]);
            assert!(ma.next[cpu] > before + 50, "pause + a positive gap");
        }
    }
}
