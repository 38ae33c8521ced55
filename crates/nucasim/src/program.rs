//! Programs: the resumable state machines simulated CPUs execute.

use std::fmt;

use nuca_topology::{CpuId, NodeId};

use crate::faults::FaultState;
use crate::mem::Addr;
use crate::stats::SimStats;
use crate::trace::{BackoffClass, SimEvent, TraceSink};

/// One step a program asks the machine to perform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    /// Load the word; the next `resume` receives the value.
    Read(Addr),
    /// Store `value`; the next `resume` receives the old value.
    Write(Addr, u64),
    /// Atomic compare-and-swap; the next `resume` receives the old value.
    Cas {
        /// Target word.
        addr: Addr,
        /// Value required for the swap to happen.
        expected: u64,
        /// Replacement value.
        new: u64,
    },
    /// Atomic swap; the next `resume` receives the old value.
    Swap {
        /// Target word.
        addr: Addr,
        /// Value to store.
        value: u64,
    },
    /// Atomic test-and-set (stores 1); the next `resume` receives the old
    /// value.
    Tas(Addr),
    /// Atomic fetch-and-add; the next `resume` receives the old value.
    FetchAdd {
        /// Target word.
        addr: Addr,
        /// Addend.
        delta: u64,
    },
    /// Compute (or back off) for the given number of cycles without
    /// touching memory.
    Delay(u64),
    /// Sleep until the word's value differs from `equals`, then receive
    /// the observed value. This models spinning on a locally cached copy:
    /// free until a writer invalidates it, then one refill transaction.
    WaitWhile {
        /// Watched word.
        addr: Addr,
        /// Sleep for as long as the word holds exactly this value.
        equals: u64,
    },
    /// The program is finished; the CPU goes idle.
    Done,
}

/// Per-CPU context handed to [`Program::resume`].
pub struct CpuCtx<'a> {
    /// The executing CPU.
    pub cpu: CpuId,
    /// Its NUCA node.
    pub node: NodeId,
    /// Current simulated time in cycles.
    pub now: u64,
    pub(crate) stats: &'a mut SimStats,
    /// Trace sink, if the machine has one installed. Every hook guards on
    /// this single `Option`, so untraced runs pay one branch per emission
    /// site and nothing else.
    pub(crate) trace: Option<&'a mut (dyn TraceSink + 'static)>,
    /// Engine-side fault state, if fault injection is on, with this CPU's
    /// calm horizon. Lock drivers notify it of acquisitions through
    /// [`CpuCtx::record_acquire`], which is how holder-targeted preemption
    /// knows who holds a lock; marking a burst zeroes the horizon so the
    /// CPU's next resume takes the engine's disturbance path.
    pub(crate) faults: Option<(&'a mut FaultState, &'a mut u64)>,
}

impl<'a> CpuCtx<'a> {
    /// Builds a standalone context (no trace sink), for driving lock
    /// sessions outside a [`crate::Machine`] — tests and examples.
    pub fn new(cpu: CpuId, node: NodeId, now: u64, stats: &'a mut SimStats) -> CpuCtx<'a> {
        CpuCtx {
            cpu,
            node,
            now,
            stats,
            trace: None,
            faults: None,
        }
    }

    /// Builds a standalone context with a trace sink installed, for
    /// replaying lock sessions through the trace layer outside a
    /// [`crate::Machine`] — e.g. the `nuca-mcheck` counterexample renderer.
    pub fn with_trace(
        cpu: CpuId,
        node: NodeId,
        now: u64,
        stats: &'a mut SimStats,
        trace: &'a mut (dyn TraceSink + 'static),
    ) -> CpuCtx<'a> {
        CpuCtx {
            cpu,
            node,
            now,
            stats,
            trace: Some(trace),
            faults: None,
        }
    }

    /// Traces the start of a lock acquisition (the first acquire step).
    /// Pure trace: no statistic is updated, so calling it is free when
    /// tracing is off. The streaming profiler ([`crate::profile`]) uses the
    /// window between this event and the matching `LockAcquire` to
    /// decompose acquire latency into phases.
    pub fn trace_acquire_start(&mut self, lock: usize) {
        if let Some(t) = self.trace.as_deref_mut() {
            t.record(
                self.now,
                SimEvent::AcquireStart {
                    lock,
                    cpu: self.cpu,
                    node: self.node,
                },
            );
        }
    }

    /// Records a successful lock acquisition for the paper's node-handoff
    /// statistics (Figs. 3 and 5, right panels). `lock` is a workload-
    /// chosen dense index.
    pub fn record_acquire(&mut self, lock: usize) {
        self.stats.record_acquire(lock, self.node);
        // Holder-targeted preemption keys off this: the new holder may be
        // marked to lose a quantum at its next resume, mid-critical-section.
        if let Some((f, calm)) = self.faults.as_mut() {
            if f.on_acquire(self.cpu) {
                **calm = 0;
            }
        }
        if let Some(t) = self.trace.as_deref_mut() {
            t.record(
                self.now,
                SimEvent::LockAcquire {
                    lock,
                    cpu: self.cpu,
                    node: self.node,
                },
            );
        }
    }

    /// Records a successful acquisition for `lock` into the statistics
    /// tiers **without** emitting a trace event or notifying the fault
    /// layer. Workloads with huge lock index spaces (the lockserver's
    /// per-object tallies) use this: tracing consumers size state by the
    /// largest lock index they observe — the streaming profiler keeps a
    /// dense `Vec` of ~1.7 KiB profiles — so sparse indices must never
    /// reach them.
    pub fn tally_acquire(&mut self, lock: usize) {
        self.stats.record_acquire(lock, self.node);
    }

    /// Records how long an acquisition waited (cycles from the first
    /// acquire step to success) into the lock's time-to-acquire histogram.
    pub fn record_acquire_latency(&mut self, lock: usize, cycles: u64) {
        self.stats.record_wait(lock, cycles);
    }

    /// Records the start of a release: `held` cycles go into the lock's
    /// hold-time histogram, and a `LockRelease` event is traced.
    pub fn record_release(&mut self, lock: usize, held: u64) {
        self.stats.record_hold(lock, held);
        if let Some(t) = self.trace.as_deref_mut() {
            t.record(
                self.now,
                SimEvent::LockRelease {
                    lock,
                    cpu: self.cpu,
                    node: self.node,
                },
            );
        }
    }

    /// Records an HBO_GT_SD anger episode (counted always; traced when a
    /// sink is installed).
    pub fn record_got_angry(&mut self) {
        self.stats.count_anger();
        if let Some(t) = self.trace.as_deref_mut() {
            t.record(
                self.now,
                SimEvent::GotAngry {
                    cpu: self.cpu,
                    node: self.node,
                },
            );
        }
    }

    /// Traces a backoff sleep of `cycles` in the given class. Pure trace:
    /// no statistic is updated, so calling it is free when tracing is off.
    pub fn trace_backoff(&mut self, cycles: u64, class: BackoffClass) {
        if let Some(t) = self.trace.as_deref_mut() {
            t.record(
                self.now,
                SimEvent::BackoffSleep {
                    cpu: self.cpu,
                    node: self.node,
                    cycles,
                    class,
                },
            );
        }
    }

    /// Traces an HBO_GT spin announcement (the spinner publishing itself
    /// as eligible for throttling). Pure trace.
    pub fn trace_throttle_spin(&mut self) {
        if let Some(t) = self.trace.as_deref_mut() {
            t.record(
                self.now,
                SimEvent::ThrottleSpin {
                    cpu: self.cpu,
                    node: self.node,
                },
            );
        }
    }
}

impl fmt::Debug for CpuCtx<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CpuCtx")
            .field("cpu", &self.cpu)
            .field("node", &self.node)
            .field("now", &self.now)
            .finish_non_exhaustive()
    }
}

/// A resumable state machine executed by one simulated CPU.
///
/// The engine calls [`Program::resume`] with the result of the previously
/// issued command (`None` initially and after `Delay`); the program returns
/// the next command. Programs are sequential: one outstanding command per
/// CPU, like the in-order processors of the paper's machines.
pub trait Program {
    /// Produces the next command. `last` carries the value returned by the
    /// just-completed memory operation.
    fn resume(&mut self, ctx: &mut CpuCtx<'_>, last: Option<u64>) -> Command;
}

impl fmt::Debug for dyn Program + '_ {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("<program>")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commands_are_comparable() {
        let a = Command::Delay(5);
        assert_eq!(a, Command::Delay(5));
        assert_ne!(a, Command::Done);
    }

    #[test]
    fn ctx_records_acquires() {
        let mut stats = SimStats::new();
        let mut ctx = CpuCtx::new(CpuId(3), NodeId(1), 42, &mut stats);
        ctx.record_acquire(0);
        ctx.record_acquire(0);
        assert_eq!(stats.lock_trace(0).unwrap().acquisitions, 2);
    }

    #[test]
    fn ctx_hooks_reach_the_trace_sink() {
        use crate::trace::EventLog;

        let log = EventLog::new();
        let mut sink = log.clone();
        let mut stats = SimStats::new();
        let mut ctx = CpuCtx::new(CpuId(3), NodeId(1), 42, &mut stats);
        ctx.trace = Some(&mut sink);
        ctx.trace_acquire_start(0);
        ctx.record_acquire(0);
        ctx.record_release(0, 17);
        ctx.trace_backoff(100, BackoffClass::Remote);
        ctx.record_got_angry();
        ctx.trace_throttle_spin();
        let events: Vec<SimEvent> = log.take().into_iter().map(|r| r.event).collect();
        assert_eq!(
            events,
            vec![
                SimEvent::AcquireStart { lock: 0, cpu: CpuId(3), node: NodeId(1) },
                SimEvent::LockAcquire { lock: 0, cpu: CpuId(3), node: NodeId(1) },
                SimEvent::LockRelease { lock: 0, cpu: CpuId(3), node: NodeId(1) },
                SimEvent::BackoffSleep {
                    cpu: CpuId(3),
                    node: NodeId(1),
                    cycles: 100,
                    class: BackoffClass::Remote,
                },
                SimEvent::GotAngry { cpu: CpuId(3), node: NodeId(1) },
                SimEvent::ThrottleSpin { cpu: CpuId(3), node: NodeId(1) },
            ]
        );
        assert_eq!(stats.lock_trace(0).unwrap().hold.count(), 1);
        assert_eq!(stats.anger_episodes(), 1);
    }
}
