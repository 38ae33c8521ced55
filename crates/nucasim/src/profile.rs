//! nuca-prof: streaming trace analysis for the lock layer.
//!
//! The paper's whole argument rests on *where* each lock handoff goes
//! (same node vs. cross node) and *what* an acquire spends its latency on.
//! The [`crate::trace`] layer emits the raw [`SimEvent`] stream, but
//! buffering it (an [`crate::EventLog`]) costs tens of bytes per event —
//! millions of events per contended run. The analyzers here consume the
//! stream *incrementally* instead: every metric is an online fold over the
//! events, so memory is bounded by machine shape (CPUs × locks × nodes,
//! with fixed-size histograms), never by event count.
//!
//! Three layers:
//!
//! * [`LockProfile`] / [`Profile`] — the analysis results: per-lock
//!   handoff-chain reconstruction (local/remote handoff counts,
//!   node-residency run lengths, the paper's node-handoff rate) and
//!   per-acquire latency decomposition (spin vs. backoff sleep by
//!   [`BackoffClass`] vs. coherence transactions split local/global), plus
//!   hold times and machine-wide episode counters.
//! * [`ProfileCollector`] — a cloneable [`TraceSink`] handle for profiling
//!   one machine explicitly (the `handoff` artifact): clone it, box one
//!   clone into the machine, call [`ProfileCollector::finish`] after.
//! * the **global registry** — [`enable_global_profiling`] makes every
//!   subsequently-run [`crate::Machine`] without an explicit sink install
//!   a streaming profiler whose results merge, keyed by the machine's
//!   profile label, into a process-wide table ([`take_global_profiles`]).
//!   This is what the experiment harness's `--profile` flag turns on: the
//!   artifacts run unchanged (profiling only observes, so every TSV byte
//!   is identical) while the profiler aggregates across all of them.
//!
//! # Determinism contract
//!
//! A single machine's profile is a pure function of its event stream, and
//! the event stream is a pure function of the simulation — so per-machine
//! profiles are deterministic across host thread counts.
//! Global aggregation happens in whatever order parallel jobs finish, so
//! every merged quantity is a commutative, associative integer fold
//! (counts, sums, bucket-wise histogram merges); ratios are derived only
//! at serialization time. Labels are reported in sorted order.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use nuca_topology::NodeId;

use crate::metrics::Histogram;
use crate::trace::{BackoffClass, SimEvent, TraceSink};

/// Streaming per-lock analysis: handoff-chain reconstruction and acquire
/// latency decomposition, all counters merge-safe integers.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LockProfile {
    /// Successful acquisitions observed.
    pub acquires: u64,
    /// Handovers whose new holder was on the *same* node as the previous
    /// one (node-local runs — what HBO maximizes).
    pub local_handoffs: u64,
    /// Handovers that crossed to a different node (the paper's "node
    /// handoffs"; every one costs a remote lock-word transfer).
    pub remote_handoffs: u64,
    /// Handoff chains folded into this profile: one per event stream that
    /// acquired this lock at least once. A chain's first acquisition is
    /// not a handover, so the bookkeeping identity — which survives
    /// merging, unlike the per-machine `+ 1` form — is
    /// `local_handoffs + remote_handoffs + chains == acquires`.
    pub chains: u64,
    /// Acquisitions per node (index = node id; grown on demand).
    pub node_acquires: Vec<u64>,
    /// Acquisitions per CPU (index = cpu id; grown on demand). A zero for
    /// a contending CPU is the starvation tell: a lock can post a perfect
    /// remote-handoff rate simply by never granting some CPUs at all.
    pub cpu_acquires: Vec<u64>,
    /// Node-residency run lengths: each sample is how many consecutive
    /// acquisitions stayed on one node before the lock migrated. Longer
    /// runs mean better handoff locality.
    pub residency_runs: Histogram,
    /// Acquire-window lengths in cycles (first acquire step to grant).
    pub wait: Histogram,
    /// Acquire-window cycles not accounted to a backoff sleep: active
    /// spinning plus coherence stalls (the residual phase).
    pub spin_cycles: u64,
    /// Acquire windows whose recorded backoff exceeded the window length,
    /// forcing the spin residual to clamp at zero. Always zero for the
    /// in-repo lock state machines (every backoff sleep lies inside the
    /// window that recorded it); a nonzero count means a lock
    /// implementation is emitting backoff events outside its acquire
    /// window — an accounting bug this field surfaces instead of hiding.
    pub spin_clamped: u64,
    /// Acquire-window cycles slept in [`BackoffClass::Local`] backoff.
    pub backoff_local_cycles: u64,
    /// Acquire-window cycles slept in [`BackoffClass::Remote`] backoff.
    pub backoff_remote_cycles: u64,
    /// Node-local coherence transactions issued inside acquire windows.
    pub coh_local: u64,
    /// Global (interconnect-crossing) coherence transactions issued inside
    /// acquire windows.
    pub coh_global: u64,
    /// Completed hold intervals observed (acquire → release start).
    pub holds: u64,
    /// Total cycles the lock was held across those intervals.
    pub hold_cycles: u64,
    /// Node currently holding the handoff chain (streaming state; cleared
    /// when the profile is finished).
    cur_node: Option<usize>,
    /// Length of the current node-residency run (streaming state).
    cur_run: u64,
}

impl LockProfile {
    /// Remote handoffs per handover opportunity — the paper's node handoff
    /// rate, matching [`crate::LockTrace::handoff_ratio`]. `None` before
    /// the second acquisition.
    pub fn remote_handoff_rate(&self) -> Option<f64> {
        if self.acquires < 2 {
            None
        } else {
            Some(self.remote_handoffs as f64 / (self.acquires - 1) as f64)
        }
    }

    /// Fraction of handovers that stayed node-local (1 − remote rate).
    pub fn handoff_locality(&self) -> Option<f64> {
        self.remote_handoff_rate().map(|r| 1.0 - r)
    }

    /// Mean node-residency run length, or `None` before any run completed.
    pub fn mean_residency_run(&self) -> Option<f64> {
        self.residency_runs.mean()
    }

    /// Total acquire-window cycles (the denominator of the phase split).
    pub fn wait_cycles(&self) -> u64 {
        self.wait.sum()
    }

    /// The acquire-latency phase split as fractions of the total wait:
    /// `(spin, backoff_local, backoff_remote)`. `None` when no wait time
    /// was observed.
    pub fn phase_fractions(&self) -> Option<(f64, f64, f64)> {
        let total = self.wait_cycles();
        if total == 0 {
            return None;
        }
        let t = total as f64;
        Some((
            self.spin_cycles as f64 / t,
            self.backoff_local_cycles as f64 / t,
            self.backoff_remote_cycles as f64 / t,
        ))
    }

    /// The phase that dominates the acquire critical path: `"spin"`,
    /// `"backoff_local"` or `"backoff_remote"` (`"idle"` with no waits).
    pub fn critical_path(&self) -> &'static str {
        let phases = [
            (self.spin_cycles, "spin"),
            (self.backoff_local_cycles, "backoff_local"),
            (self.backoff_remote_cycles, "backoff_remote"),
        ];
        if self.wait_cycles() == 0 {
            return "idle";
        }
        phases
            .iter()
            .max_by_key(|(cycles, _)| *cycles)
            .map(|&(_, name)| name)
            .expect("phases is non-empty")
    }

    /// How many of the `cpus` contending CPUs never acquired at all —
    /// the starved-CPU count the `handoff` artifact prints next to the
    /// remote-handoff rate, so a "0.00 remote rate" earned by starving
    /// whole CPUs is visibly different from one earned by locality.
    pub fn starved_cpus(&self, cpus: usize) -> usize {
        (0..cpus)
            .filter(|&c| self.cpu_acquires.get(c).copied().unwrap_or(0) == 0)
            .count()
    }

    /// Mean hold time in cycles, or `None` before any release.
    pub fn mean_hold(&self) -> Option<f64> {
        if self.holds == 0 {
            None
        } else {
            Some(self.hold_cycles as f64 / self.holds as f64)
        }
    }

    /// Adds every count of `other` into `self` (commutative).
    pub fn merge(&mut self, other: &LockProfile) {
        debug_assert!(
            other.cur_node.is_none() && other.cur_run == 0,
            "merge a finished profile (open residency runs flushed)"
        );
        self.acquires += other.acquires;
        self.local_handoffs += other.local_handoffs;
        self.remote_handoffs += other.remote_handoffs;
        self.chains += other.chains;
        if self.node_acquires.len() < other.node_acquires.len() {
            self.node_acquires.resize(other.node_acquires.len(), 0);
        }
        for (a, b) in self.node_acquires.iter_mut().zip(&other.node_acquires) {
            *a += b;
        }
        if self.cpu_acquires.len() < other.cpu_acquires.len() {
            self.cpu_acquires.resize(other.cpu_acquires.len(), 0);
        }
        for (a, b) in self.cpu_acquires.iter_mut().zip(&other.cpu_acquires) {
            *a += b;
        }
        self.residency_runs.merge(&other.residency_runs);
        self.wait.merge(&other.wait);
        self.spin_cycles += other.spin_cycles;
        self.spin_clamped += other.spin_clamped;
        self.backoff_local_cycles += other.backoff_local_cycles;
        self.backoff_remote_cycles += other.backoff_remote_cycles;
        self.coh_local += other.coh_local;
        self.coh_global += other.coh_global;
        self.holds += other.holds;
        self.hold_cycles += other.hold_cycles;
    }

    fn on_acquire(&mut self, cpu: usize, node: NodeId) {
        self.acquires += 1;
        if self.node_acquires.len() <= node.index() {
            self.node_acquires.resize(node.index() + 1, 0);
        }
        self.node_acquires[node.index()] += 1;
        if self.cpu_acquires.len() <= cpu {
            self.cpu_acquires.resize(cpu + 1, 0);
        }
        self.cpu_acquires[cpu] += 1;
        match self.cur_node {
            Some(prev) if prev == node.index() => {
                self.local_handoffs += 1;
                self.cur_run += 1;
            }
            Some(_) => {
                self.remote_handoffs += 1;
                self.residency_runs.record(self.cur_run);
                self.cur_run = 1;
            }
            None => {
                self.chains += 1;
                self.cur_run = 1;
            }
        }
        self.cur_node = Some(node.index());
    }

    /// Flushes the open node-residency run (end of stream).
    fn flush(&mut self) {
        if self.cur_run > 0 {
            self.residency_runs.record(self.cur_run);
        }
        self.cur_run = 0;
        self.cur_node = None;
    }
}

/// A machine-level (or merged) streaming profile: per-lock analyses plus
/// machine-wide episode counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Profile {
    /// Per-lock profiles (index = workload-chosen dense lock index).
    pub locks: Vec<LockProfile>,
    /// HBO_GT_SD `GET_ANGRY` episodes observed.
    pub anger_episodes: u64,
    /// HBO_GT throttled-spin announcements observed.
    pub throttle_spins: u64,
    /// Preemption windows observed.
    pub preemptions: u64,
    /// Injected thread migrations observed.
    pub migrations: u64,
    /// MESI shared→exclusive upgrade invalidations observed.
    pub upgrades: u64,
    /// Set-associative cache evictions observed.
    pub evictions: u64,
    /// Dragon update broadcasts observed.
    pub update_broadcasts: u64,
    /// Total [`SimEvent`]s folded into this profile.
    pub events: u64,
}

impl Profile {
    /// Adds every count of `other` into `self` (commutative, associative —
    /// global aggregation relies on this, see the module docs).
    pub fn merge(&mut self, other: &Profile) {
        if self.locks.len() < other.locks.len() {
            self.locks.resize_with(other.locks.len(), LockProfile::default);
        }
        for (a, b) in self.locks.iter_mut().zip(&other.locks) {
            a.merge(b);
        }
        self.anger_episodes += other.anger_episodes;
        self.throttle_spins += other.throttle_spins;
        self.preemptions += other.preemptions;
        self.migrations += other.migrations;
        self.upgrades += other.upgrades;
        self.evictions += other.evictions;
        self.update_broadcasts += other.update_broadcasts;
        self.events += other.events;
    }

    /// Approximate heap + inline footprint in bytes. The point of the
    /// streaming design: this is `O(locks × nodes)` with two fixed-size
    /// histograms per lock — independent of `self.events`, which counts
    /// how many events were folded in.
    pub fn approx_bytes(&self) -> usize {
        let per_lock: usize = self
            .locks
            .iter()
            .map(|l| {
                std::mem::size_of::<LockProfile>()
                    + (l.node_acquires.len() + l.cpu_acquires.len()) * 8
            })
            .sum();
        std::mem::size_of::<Profile>() + per_lock
    }
}

/// Per-CPU streaming state: the open acquire window and held locks.
#[derive(Debug, Default)]
struct CpuState {
    /// Open acquire window, set by `AcquireStart`, consumed by the
    /// matching `LockAcquire`.
    window: Option<Window>,
    /// Locks this CPU currently holds, with acquisition times. A plain
    /// vec: programs hold at most a handful of locks at once.
    held: Vec<(usize, u64)>,
}

#[derive(Debug)]
struct Window {
    lock: usize,
    start: u64,
    backoff_local: u64,
    backoff_remote: u64,
    coh_local: u64,
    coh_global: u64,
}

/// The incremental analyzer: folds one event at a time into a [`Profile`].
#[derive(Debug, Default)]
struct ProfCore {
    profile: Profile,
    cpus: Vec<CpuState>,
}

impl ProfCore {
    fn cpu(&mut self, i: usize) -> &mut CpuState {
        if self.cpus.len() <= i {
            self.cpus.resize_with(i + 1, CpuState::default);
        }
        &mut self.cpus[i]
    }

    fn lock(&mut self, i: usize) -> &mut LockProfile {
        if self.profile.locks.len() <= i {
            self.profile.locks.resize_with(i + 1, LockProfile::default);
        }
        &mut self.profile.locks[i]
    }

    #[inline]
    fn on_event(&mut self, at: u64, event: SimEvent) {
        self.profile.events += 1;
        match event {
            SimEvent::AcquireStart { lock, cpu, .. } => {
                self.cpu(cpu.index()).window = Some(Window {
                    lock,
                    start: at,
                    backoff_local: 0,
                    backoff_remote: 0,
                    coh_local: 0,
                    coh_global: 0,
                });
            }
            // The two highest-volume events. `get_mut`, not `cpu()`: a CPU
            // without state yet cannot have an open window (`AcquireStart`
            // creates the state), so the grow-on-miss branch would only
            // cost — never fire — here.
            SimEvent::BackoffSleep { cpu, cycles, class, .. } => {
                if let Some(w) = self.cpus.get_mut(cpu.index()).and_then(|s| s.window.as_mut()) {
                    match class {
                        BackoffClass::Local => w.backoff_local += cycles,
                        BackoffClass::Remote => w.backoff_remote += cycles,
                    }
                }
            }
            SimEvent::CoherenceTxn { cpu, global, .. } => {
                // Only transactions inside an acquire window count toward
                // the acquire phase split; critical-section and private
                // traffic is not acquire latency.
                if let Some(w) = self.cpus.get_mut(cpu.index()).and_then(|s| s.window.as_mut()) {
                    if global {
                        w.coh_global += 1;
                    } else {
                        w.coh_local += 1;
                    }
                }
            }
            SimEvent::LockAcquire { lock, cpu, node } => {
                let state = self.cpu(cpu.index());
                let window = match state.window.take() {
                    Some(w) if w.lock == lock => Some(w),
                    other => {
                        // Window for a different lock: put it back (a
                        // nested workload may interleave lock indices).
                        state.window = other;
                        None
                    }
                };
                state.held.push((lock, at));
                let lp = self.lock(lock);
                lp.on_acquire(cpu.index(), node);
                if let Some(w) = window {
                    let wait = at - w.start;
                    let backoff = w.backoff_local + w.backoff_remote;
                    lp.wait.record(wait);
                    // The residual saturates at zero; count the windows
                    // where it actually clamped (recorded backoff longer
                    // than the window) rather than silently absorbing them.
                    if backoff > wait {
                        lp.spin_clamped += 1;
                    }
                    lp.spin_cycles += wait.saturating_sub(backoff);
                    lp.backoff_local_cycles += w.backoff_local;
                    lp.backoff_remote_cycles += w.backoff_remote;
                    lp.coh_local += w.coh_local;
                    lp.coh_global += w.coh_global;
                }
            }
            SimEvent::LockRelease { lock, cpu, .. } => {
                let state = self.cpu(cpu.index());
                if let Some(pos) = state.held.iter().rposition(|&(l, _)| l == lock) {
                    let (_, acquired_at) = state.held.swap_remove(pos);
                    let lp = self.lock(lock);
                    lp.holds += 1;
                    lp.hold_cycles += at - acquired_at;
                }
            }
            SimEvent::GotAngry { .. } => self.profile.anger_episodes += 1,
            SimEvent::ThrottleSpin { .. } => self.profile.throttle_spins += 1,
            SimEvent::Preempt { .. } => self.profile.preemptions += 1,
            SimEvent::Migrate { .. } => self.profile.migrations += 1,
            SimEvent::Upgrade { .. } => self.profile.upgrades += 1,
            SimEvent::Eviction { .. } => self.profile.evictions += 1,
            SimEvent::UpdateBroadcast { .. } => self.profile.update_broadcasts += 1,
        }
    }

    /// Ends the stream: flushes open residency runs and returns the
    /// profile, resetting the analyzer.
    fn finish(&mut self) -> Profile {
        for lock in &mut self.profile.locks {
            lock.flush();
        }
        self.cpus.clear();
        std::mem::take(&mut self.profile)
    }
}

/// A cloneable streaming-profiler handle, used like [`crate::EventLog`]:
/// clone it, box one clone into the machine with
/// [`crate::Machine::set_trace_sink`], and call
/// [`ProfileCollector::finish`] on the other clone after the run.
///
/// The clones share one single-threaded analyzer (a machine and its sinks
/// live on one thread), so recording an event takes no lock.
///
/// ```
/// use nucasim::{Machine, MachineConfig, ProfileCollector};
///
/// let prof = ProfileCollector::new();
/// let mut machine = Machine::new(MachineConfig::wildfire(2, 2));
/// machine.set_trace_sink(Box::new(prof.clone()));
/// // ... add programs, run ...
/// let profile = prof.finish();
/// assert_eq!(profile.events, 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ProfileCollector {
    inner: Rc<RefCell<ProfCore>>,
}

impl ProfileCollector {
    /// A fresh collector.
    pub fn new() -> ProfileCollector {
        ProfileCollector::default()
    }

    /// Ends the stream and moves the accumulated [`Profile`] out (open
    /// node-residency runs are flushed), leaving the collector empty.
    pub fn finish(&self) -> Profile {
        self.inner.borrow_mut().finish()
    }
}

impl TraceSink for ProfileCollector {
    #[inline]
    fn record(&mut self, at: u64, event: SimEvent) {
        self.inner.borrow_mut().on_event(at, event);
    }
}

/// Whether [`enable_global_profiling`] has been called.
static GLOBAL_ENABLED: AtomicBool = AtomicBool::new(false);

/// Label-keyed merged profiles from every machine run since global
/// profiling was enabled.
static GLOBAL_PROFILES: Mutex<BTreeMap<String, Profile>> = Mutex::new(BTreeMap::new());

/// Label machines merge under when no profile label was set.
pub const UNLABELED: &str = "_other";

/// Turns on process-wide streaming profiling: every [`crate::Machine`]
/// subsequently run without an explicit trace sink installs a profiler
/// whose results merge into the global table under the machine's
/// [`crate::Machine::set_profile_label`] (or [`UNLABELED`]). Profiling
/// only observes — simulation results are bit-identical either way.
/// Idempotent; there is deliberately no way to turn it off mid-process
/// (runs would otherwise be profiled or not depending on timing).
pub fn enable_global_profiling() {
    GLOBAL_ENABLED.store(true, Ordering::Relaxed);
}

/// Whether global profiling is on.
pub fn global_profiling_enabled() -> bool {
    GLOBAL_ENABLED.load(Ordering::Relaxed)
}

/// Moves the globally-aggregated profiles out, sorted by label. Merging
/// is commutative, so the result is deterministic no matter how many
/// threads the contributing runs were spread over.
pub fn take_global_profiles() -> Vec<(String, Profile)> {
    let mut table = GLOBAL_PROFILES.lock().expect("global profiles poisoned");
    std::mem::take(&mut *table).into_iter().collect()
}

/// The sink the engine installs on globally-profiled machines: a plain
/// analyzer that merges into the global table when the machine (and with
/// it the boxed sink) is dropped.
#[derive(Debug)]
struct GlobalSink {
    core: ProfCore,
    label: String,
}

impl TraceSink for GlobalSink {
    #[inline]
    fn record(&mut self, at: u64, event: SimEvent) {
        self.core.on_event(at, event);
    }
}

impl Drop for GlobalSink {
    fn drop(&mut self) {
        let profile = self.core.finish();
        if profile.events == 0 {
            return;
        }
        let mut table = GLOBAL_PROFILES.lock().expect("global profiles poisoned");
        table
            .entry(std::mem::take(&mut self.label))
            .or_default()
            .merge(&profile);
    }
}

/// Builds the engine-side global sink (see [`crate::Machine::run`]).
pub(crate) fn global_sink(label: Option<&str>) -> Box<dyn TraceSink> {
    Box::new(GlobalSink {
        core: ProfCore::default(),
        label: label.unwrap_or(UNLABELED).to_owned(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nuca_topology::CpuId;

    fn acquire(lock: usize, cpu: usize, node: usize) -> SimEvent {
        SimEvent::LockAcquire {
            lock,
            cpu: CpuId(cpu),
            node: NodeId(node),
        }
    }

    fn start(lock: usize, cpu: usize, node: usize) -> SimEvent {
        SimEvent::AcquireStart {
            lock,
            cpu: CpuId(cpu),
            node: NodeId(node),
        }
    }

    #[test]
    fn handoff_chain_splits_local_and_remote() {
        let prof = ProfileCollector::new();
        let mut sink: Box<dyn TraceSink> = Box::new(prof.clone());
        // Nodes: 0, 0, 1, 1, 1, 0 → handoffs: local, remote, local, local,
        // remote; runs: 2, 3, then an open run of 1 flushed at finish.
        for (i, node) in [0usize, 0, 1, 1, 1, 0].iter().enumerate() {
            sink.record(i as u64 * 10, acquire(0, *node * 2, *node));
        }
        let p = prof.finish();
        let lock = &p.locks[0];
        assert_eq!(lock.acquires, 6);
        assert_eq!(lock.local_handoffs, 3);
        assert_eq!(lock.remote_handoffs, 2);
        assert_eq!(lock.remote_handoff_rate(), Some(2.0 / 5.0));
        assert_eq!(lock.handoff_locality(), Some(1.0 - 2.0 / 5.0));
        assert_eq!(lock.node_acquires, vec![3, 3]);
        // The two acquiring CPUs were 0 and 2; CPUs 1 and 3 never won.
        assert_eq!(lock.cpu_acquires, vec![3, 0, 3]);
        assert_eq!(lock.starved_cpus(4), 2);
        assert_eq!(lock.starved_cpus(2), 1);
        // Runs 2, 3 and the flushed tail run 1.
        assert_eq!(lock.residency_runs.count(), 3);
        assert_eq!(lock.residency_runs.sum(), 6);
        assert_eq!(lock.mean_residency_run(), Some(2.0));
    }

    #[test]
    fn acquire_window_decomposes_into_phases() {
        let prof = ProfileCollector::new();
        let mut sink: Box<dyn TraceSink> = Box::new(prof.clone());
        sink.record(100, start(0, 1, 0));
        sink.record(
            110,
            SimEvent::BackoffSleep {
                cpu: CpuId(1),
                node: NodeId(0),
                cycles: 40,
                class: BackoffClass::Local,
            },
        );
        sink.record(
            160,
            SimEvent::BackoffSleep {
                cpu: CpuId(1),
                node: NodeId(0),
                cycles: 100,
                class: BackoffClass::Remote,
            },
        );
        sink.record(
            270,
            SimEvent::CoherenceTxn {
                cpu: CpuId(1),
                node: NodeId(0),
                home: NodeId(1),
                global: true,
            },
        );
        sink.record(300, acquire(0, 1, 0));
        sink.record(350, SimEvent::LockRelease {
            lock: 0,
            cpu: CpuId(1),
            node: NodeId(0),
        });
        let p = prof.finish();
        let lock = &p.locks[0];
        // Window = 200 cycles: 40 local backoff + 100 remote backoff +
        // 60 residual spin.
        assert_eq!(lock.wait_cycles(), 200);
        assert_eq!(lock.backoff_local_cycles, 40);
        assert_eq!(lock.backoff_remote_cycles, 100);
        assert_eq!(lock.spin_cycles, 60);
        assert_eq!(lock.spin_clamped, 0, "well-formed window never clamps");
        assert_eq!(lock.coh_global, 1);
        assert_eq!(lock.coh_local, 0);
        assert_eq!(lock.critical_path(), "backoff_remote");
        let (spin, bl, br) = lock.phase_fractions().unwrap();
        assert!((spin - 0.3).abs() < 1e-12);
        assert!((bl - 0.2).abs() < 1e-12);
        assert!((br - 0.5).abs() < 1e-12);
        // Hold accounting: 300 → 350.
        assert_eq!(lock.holds, 1);
        assert_eq!(lock.hold_cycles, 50);
        assert_eq!(lock.mean_hold(), Some(50.0));
    }

    #[test]
    fn overlong_backoff_is_counted_not_hidden() {
        // A lock bug that records more backoff than the window is long
        // used to vanish into the saturating subtraction; now the clamp
        // is counted per window.
        let prof = ProfileCollector::new();
        let mut sink: Box<dyn TraceSink> = Box::new(prof.clone());
        sink.record(0, start(0, 0, 0));
        sink.record(
            10,
            SimEvent::BackoffSleep {
                cpu: CpuId(0),
                node: NodeId(0),
                cycles: 500,
                class: BackoffClass::Remote,
            },
        );
        sink.record(100, acquire(0, 0, 0));
        // A second, well-formed window on the same lock.
        sink.record(200, start(0, 0, 0));
        sink.record(250, acquire(0, 0, 0));
        let p = prof.finish();
        let lock = &p.locks[0];
        assert_eq!(lock.spin_clamped, 1, "exactly the overlong window");
        assert_eq!(lock.backoff_remote_cycles, 500, "backoff still recorded");
        assert_eq!(lock.spin_cycles, 50, "only the clean window's residual");

        // The counter survives a merge.
        let mut merged = LockProfile::default();
        merged.merge(lock);
        merged.merge(lock);
        assert_eq!(merged.spin_clamped, 2);
    }

    #[test]
    fn coherence_outside_windows_is_not_acquire_latency() {
        let prof = ProfileCollector::new();
        let mut sink: Box<dyn TraceSink> = Box::new(prof.clone());
        sink.record(
            5,
            SimEvent::CoherenceTxn {
                cpu: CpuId(0),
                node: NodeId(0),
                home: NodeId(0),
                global: false,
            },
        );
        sink.record(10, start(0, 0, 0));
        sink.record(20, acquire(0, 0, 0));
        let p = prof.finish();
        assert_eq!(p.locks[0].coh_local, 0);
        assert_eq!(p.locks[0].wait_cycles(), 10);
        assert_eq!(p.events, 3);
    }

    #[test]
    fn episode_counters_accumulate() {
        let prof = ProfileCollector::new();
        let mut sink: Box<dyn TraceSink> = Box::new(prof.clone());
        sink.record(1, SimEvent::GotAngry { cpu: CpuId(0), node: NodeId(0) });
        sink.record(2, SimEvent::ThrottleSpin { cpu: CpuId(1), node: NodeId(0) });
        sink.record(3, SimEvent::Preempt { cpu: CpuId(2), cycles: 99 });
        sink.record(
            4,
            SimEvent::Migrate {
                cpu: CpuId(3),
                from: NodeId(0),
                to: NodeId(1),
            },
        );
        let p = prof.finish();
        assert_eq!(
            (p.anger_episodes, p.throttle_spins, p.preemptions, p.migrations),
            (1, 1, 1, 1)
        );
    }

    #[test]
    fn merge_is_commutative() {
        let mk = |nodes: &[usize]| {
            let prof = ProfileCollector::new();
            let mut sink: Box<dyn TraceSink> = Box::new(prof.clone());
            for (i, &n) in nodes.iter().enumerate() {
                sink.record(i as u64, acquire(0, n, n));
            }
            prof.finish()
        };
        let a = mk(&[0, 0, 1]);
        let b = mk(&[1, 0, 0, 1]);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.locks[0].acquires, 7);
    }

    #[test]
    fn footprint_is_independent_of_event_count() {
        let prof = ProfileCollector::new();
        let mut sink: Box<dyn TraceSink> = Box::new(prof.clone());
        for i in 0..100_000u64 {
            let node = (i % 2) as usize;
            sink.record(i * 3, start(0, node, node));
            sink.record(i * 3 + 1, acquire(0, node, node));
            sink.record(
                i * 3 + 2,
                SimEvent::LockRelease {
                    lock: 0,
                    cpu: CpuId(node),
                    node: NodeId(node),
                },
            );
        }
        let p = prof.finish();
        assert_eq!(p.events, 300_000);
        assert!(
            p.approx_bytes() < 4096,
            "streaming profile grew with events: {} bytes",
            p.approx_bytes()
        );
    }

    #[test]
    fn global_profiling_aggregates_by_label() {
        use crate::{Command, CpuCtx, Machine, MachineConfig, Program};

        struct OneAcquire(bool);
        impl Program for OneAcquire {
            fn resume(&mut self, ctx: &mut CpuCtx<'_>, _l: Option<u64>) -> Command {
                if self.0 {
                    return Command::Done;
                }
                self.0 = true;
                ctx.trace_acquire_start(0);
                ctx.record_acquire(0);
                Command::Delay(1)
            }
        }

        enable_global_profiling();
        assert!(global_profiling_enabled());
        let label = "test:profile-global";
        let mut m = Machine::new(MachineConfig::wildfire(1, 2));
        m.set_profile_label(label);
        m.add_program(nuca_topology::CpuId(0), Box::new(OneAcquire(false)));
        let status = m.run(1_000);
        assert!(status.finished_all);
        drop(m.into_report());
        let profiles = take_global_profiles();
        let (_, p) = profiles
            .iter()
            .find(|(l, _)| l == label)
            .expect("labeled profile registered");
        assert_eq!(p.locks[0].acquires, 1);
        // Other concurrently-running tests may have contributed profiles
        // under other labels; sorted order is all we assert about them.
        let labels: Vec<&String> = profiles.iter().map(|(l, _)| l).collect();
        let mut sorted = labels.clone();
        sorted.sort();
        assert_eq!(labels, sorted);
    }
}
