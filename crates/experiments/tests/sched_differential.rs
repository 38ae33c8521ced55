//! Differential test of the [`EventQueue`] contract: the engine's
//! [`TimeWheel`] against the [`BinHeapQueue`] oracle.
//!
//! The contract is `(time, seq)` order — earliest time first, FIFO among
//! events on one tick — with a `pop_at_most` that leaves the queue
//! untouched when it declines and a pure `next_time` peek. Two kinds of
//! input drive both queues in lockstep and compare every observation:
//!
//! * seeded random streams of push / pop / `pop_at_most` / `next_time`
//!   whose delays cover every wheel structure — level 0 (same block),
//!   level 1 (same superblock), the overflow heap — and same-tick ties;
//! * scheduler-op logs recorded from real fig5 cells (one undisturbed,
//!   one under preemption and fault injection), replayed op by op.
//!
//! Agreement on every pop and peek of a recorded log means an engine
//! driven by the heap would have made the same choices as the wheel did,
//! so the simulation — and every artifact TSV — is the oracle's.

use hbo_locks::LockKind;
use nuca_workloads::modern::{run_modern_recorded, ModernConfig};
use nucasim::sched::{BinHeapQueue, EventQueue, TimeWheel};
use nucasim::{
    FaultConfig, HolderPreemptConfig, MachineConfig, MigrationConfig, PreemptionConfig, SchedOp,
    SplitMix64,
};

/// Cycles covered by the wheel's level 0 (one block) and by levels 0+1
/// (one superblock); anything further goes to the overflow heap.
const L0_SPAN: u64 = 1 << 12;
const HORIZON: u64 = 1 << 18;

/// Which structure a push's delay was drawn for; the stream asserts it
/// exercised every one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Tie,
    L0,
    L1,
    Overflow,
}

fn draw_delay(rng: &mut SplitMix64) -> (u64, Class) {
    match rng.next_below(100) {
        0..=14 => (0, Class::Tie),
        15..=54 => (rng.next_below(L0_SPAN), Class::L0),
        55..=84 => (L0_SPAN + rng.next_below(HORIZON - L0_SPAN), Class::L1),
        _ => (HORIZON + rng.next_below(16 * HORIZON), Class::Overflow),
    }
}

/// Lockstep pair: every operation goes to both queues, every answer must
/// agree, and the lengths must match after each step.
struct Pair {
    wheel: TimeWheel,
    heap: BinHeapQueue,
    step: usize,
}

impl Pair {
    fn new() -> Pair {
        Pair {
            wheel: TimeWheel::new(),
            heap: BinHeapQueue::new(),
            step: 0,
        }
    }

    fn push(&mut self, t: u64, cpu: u32) {
        self.wheel.push(t, cpu);
        self.heap.push(t, cpu);
        self.check_len();
    }

    fn pop(&mut self) -> Option<(u64, u32)> {
        let w = self.wheel.pop();
        assert_eq!(w, self.heap.pop(), "step {}: pop diverges", self.step);
        self.check_len();
        w
    }

    fn pop_at_most(&mut self, limit: u64) -> Option<(u64, u32)> {
        let w = self.wheel.pop_at_most(limit);
        let h = self.heap.pop_at_most(limit);
        assert_eq!(w, h, "step {}: pop_at_most({limit}) diverges", self.step);
        self.check_len();
        w
    }

    fn next_time(&mut self) -> Option<u64> {
        let w = self.wheel.next_time();
        assert_eq!(
            w,
            self.heap.next_time(),
            "step {}: next_time diverges",
            self.step
        );
        w
    }

    fn check_len(&mut self) {
        self.step += 1;
        assert_eq!(
            self.wheel.len(),
            self.heap.len(),
            "step {}: len diverges",
            self.step
        );
        assert_eq!(self.wheel.is_empty(), self.heap.is_empty());
    }

    fn drain(&mut self) {
        while self.pop().is_some() {}
        assert!(self.wheel.is_empty() && self.heap.is_empty());
    }
}

/// One seeded stream. Pushes never precede the last popped time (the
/// engine's only ordering obligation); ties come both from zero delays
/// and from re-pushing at a time already pending.
fn random_stream(seed: u64, ops: usize) -> [u64; 4] {
    let mut rng = SplitMix64::new(seed);
    let mut q = Pair::new();
    let mut now = 0u64;
    let mut pending_times: Vec<u64> = Vec::new();
    let mut classes = [0u64; 4];
    for _ in 0..ops {
        match rng.next_below(100) {
            0..=49 => {
                let (d, mut class) = draw_delay(&mut rng);
                let mut t = now + d;
                // Sometimes join a tick that already has events queued.
                if class != Class::Tie && !pending_times.is_empty() && rng.next_below(4) == 0 {
                    t = pending_times[rng.next_below(pending_times.len() as u64) as usize];
                    class = Class::Tie;
                }
                classes[class as usize] += 1;
                pending_times.push(t);
                if pending_times.len() > 64 {
                    pending_times.swap_remove(0);
                }
                q.push(t, rng.next_below(128) as u32);
            }
            50..=69 => {
                if let Some((t, _)) = q.pop() {
                    assert!(t >= now, "time went backwards: {t} < {now}");
                    now = t;
                }
            }
            70..=89 => {
                // Limits both short of and past the head, so pop_at_most
                // declines as often as it pops.
                let limit = match q.next_time() {
                    Some(h) if rng.next_below(2) == 0 => h.saturating_sub(rng.next_below(3)),
                    _ => now + rng.next_below(2 * HORIZON),
                };
                if let Some((t, _)) = q.pop_at_most(limit) {
                    assert!(t <= limit && t >= now);
                    now = t;
                }
            }
            _ => {
                if let Some(h) = q.next_time() {
                    assert!(h >= now);
                }
            }
        }
        pending_times.retain(|&t| t >= now);
    }
    q.drain();
    classes
}

#[test]
fn random_streams_agree_with_the_oracle() {
    let mut total = [0u64; 4];
    for seed in 0..16u64 {
        let classes = random_stream(0xD1FF_0000 + seed, 20_000);
        for (sum, n) in total.iter_mut().zip(classes) {
            *sum += n;
        }
    }
    for (class, n) in [Class::Tie, Class::L0, Class::L1, Class::Overflow]
        .iter()
        .zip(total)
    {
        assert!(n > 1_000, "{class:?} pushes under-exercised: {n}");
    }
}

#[test]
fn long_idle_gaps_and_dense_ticks_agree() {
    // Bursts of same-tick events separated by jumps of whole superblocks
    // (empty wheels, overflow drains) and by exact block boundaries.
    let mut q = Pair::new();
    let mut now = 0u64;
    for round in 0..200u64 {
        let gap = match round % 4 {
            0 => HORIZON * (1 + round % 3),
            1 => L0_SPAN - (now % L0_SPAN),
            2 => HORIZON - (now % HORIZON),
            _ => 1,
        };
        for cpu in 0..8 {
            q.push(now + gap, cpu);
            q.push(now + gap + L0_SPAN, cpu + 8);
        }
        for _ in 0..12 {
            now = q.pop().expect("pending").0;
        }
        assert_eq!(q.pop_at_most(now.saturating_sub(1)), None);
    }
    q.drain();
}

/// A fig5 grid cell (28 processors, `critical_work = 1500`), shortened.
fn fig5_cell(kind: LockKind) -> ModernConfig {
    ModernConfig {
        kind,
        machine: MachineConfig::wildfire(2, 14),
        threads: 28,
        iterations: 12,
        critical_work: 1500,
        ..ModernConfig::default()
    }
}

/// Replays `ops` through both queues with a peek after every operation
/// (the engine peeks the head after each pop to decide inline resumes).
fn replay_agrees(ops: &[SchedOp]) {
    let mut q = Pair::new();
    let mut pops = 0usize;
    for op in ops {
        match *op {
            SchedOp::Push { t, cpu } => q.push(t, cpu),
            SchedOp::Pop => {
                assert!(q.pop().is_some(), "the log pops only recorded successes");
                pops += 1;
            }
        }
        q.next_time();
    }
    assert!(pops > 1_000, "log too short to mean anything: {pops} pops");
}

#[test]
fn recorded_fig5_log_replays_identically() {
    for kind in [LockKind::Hbo, LockKind::Mcs] {
        let (report, ops) = run_modern_recorded(&fig5_cell(kind));
        assert!(report.finished_all);
        replay_agrees(&ops);
    }
}

#[test]
fn recorded_faulted_log_replays_identically() {
    // Preemption windows, holder-preemption bursts and migrations
    // reschedule resumes at collision-prone times and push far-future
    // events through the overflow heap.
    let mut cfg = fig5_cell(LockKind::HboGtSd);
    cfg.machine = cfg
        .machine
        .with_preemption(PreemptionConfig {
            mean_gap: 200_000,
            quantum: 300_000,
        })
        .with_faults(
            FaultConfig::none()
                .with_holder_preempt(HolderPreemptConfig {
                    per_mille: 100,
                    quantum: 20_000,
                })
                .with_migration(MigrationConfig {
                    mean_gap: 400_000,
                    pause: 2_000,
                }),
        );
    let (report, ops) = run_modern_recorded(&cfg);
    assert!(report.finished_all);
    assert!(
        report.preemptions > 0 && report.migrations > 0,
        "faults fired"
    );
    replay_agrees(&ops);
}
