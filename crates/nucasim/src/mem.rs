//! The simulated memory system: lines, coherence, latencies, watchers.
//!
//! Every allocated [`Addr`] is one cache-line-sized word with a home node.
//! A line tracks an exclusive owner (a CPU whose cache holds it modified)
//! or a set of sharers, plus a `busy_until` occupancy horizon — coherence
//! transactions targeting the same line serialize on it, which is the
//! mechanism behind lock-handover slowdown at high contention.
//!
//! Spinning is modeled with *watchers*: a CPU that would spin on a cached
//! value registers interest and sleeps; the next conflicting write wakes it
//! with a refill transaction (invalidate + re-fetch), exactly the cost
//! structure of test-and-test&set spinning on real coherent hardware.
//!
//! # Layout
//!
//! Per-line state is struct-of-arrays: one dense array per field, indexed
//! by a word's *slot*. The hot benchmark pattern — a critical section
//! sweeping a run of consecutively allocated lines — then walks each array
//! sequentially instead of striding over fat per-line structs, and the
//! fields an access never touches (watcher chains, homes) cost no cache
//! traffic. Watcher lists are FIFO chains through one shared node arena
//! with a freelist, so parking and waking spinners allocates nothing in
//! the steady state.
//!
//! An [`Addr`] is a *virtual* address: the line, set and home a protocol
//! derives from it never depend on where its state is stored. Words
//! allocated before the first [`MemorySystem::alloc_span`] have slot ==
//! address, so every paper artifact indexes the columns directly behind
//! one compare. A span only reserves addresses; each of its words gets a
//! slot the first time an access, `wait_while` or `poke` reaches it, so a
//! million-object table costs memory in proportion to the objects a run
//! touches. Until then a span word reads as its initial state (value 0,
//! homed on the span's node).

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use nuca_topology::{CpuId, NodeId, Topology};

use crate::coherence::{self, CoherenceProtocol};
use crate::config::{CacheGeometry, LatencyModel, ProtocolKind};
use crate::rng::SplitMix64;
use crate::stats::SimStats;
use crate::trace::{SimEvent, TraceSink};

/// Identifier of one simulated memory word (its own cache line).
///
/// `Addr`s are virtual: consecutive allocations get consecutive addresses,
/// whether or not the [`MemorySystem`] has materialized their state yet
/// (see the [module docs](self)). The encoded form
/// ([`Addr::encode`]) is a nonzero `u64` suitable for storing *in* simulated
/// memory — queue locks store pointers to their queue nodes this way.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Addr(pub(crate) u32);

impl Addr {
    /// Nonzero `u64` form for storing this address in simulated memory.
    pub fn encode(self) -> u64 {
        u64::from(self.0) + 1
    }

    /// The address `n` words past this one — for indexing into a
    /// contiguous span from [`MemorySystem::alloc_span`]. The caller is
    /// responsible for staying inside the span; the result is only checked
    /// against arithmetic overflow, not allocation bounds.
    ///
    /// # Panics
    ///
    /// Panics if the offset overflows the address width.
    pub fn offset(self, n: usize) -> Addr {
        let n = u32::try_from(n).expect("span offset exceeds address width");
        Addr(self.0.checked_add(n).expect("span offset overflows"))
    }

    /// Inverse of [`Addr::encode`]; `None` for 0 (the null encoding).
    pub fn decode(v: u64) -> Option<Addr> {
        if v == 0 || v > u64::from(u32::MAX) {
            None
        } else {
            Some(Addr((v - 1) as u32))
        }
    }

    /// The address as an index (word number in the virtual address space).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "addr{}", self.0)
    }
}

/// One memory operation a program can issue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemOp {
    /// Plain load; returns the value.
    Read,
    /// Plain store; returns the *old* value.
    Write(u64),
    /// Atomic compare-and-swap; returns the old value.
    Cas {
        /// Value the word must hold for the swap to happen.
        expected: u64,
        /// Replacement value.
        new: u64,
    },
    /// Atomic swap; returns the old value.
    Swap(u64),
    /// Atomic test-and-set (write 1); returns the old value.
    Tas,
    /// Atomic fetch-and-add; returns the old value.
    FetchAdd(u64),
}

impl MemOp {
    /// Whether the operation needs exclusive ownership of the line.
    ///
    /// Atomics always fetch exclusive — even a failing `cas` steals the
    /// line from its owner, which is why undisciplined `cas` spinning is
    /// expensive and backoff matters.
    pub fn is_write(self) -> bool {
        !matches!(self, MemOp::Read)
    }

    /// Whether the operation is an atomic read-modify-write.
    pub fn is_atomic(self) -> bool {
        matches!(
            self,
            MemOp::Cas { .. } | MemOp::Swap(_) | MemOp::Tas | MemOp::FetchAdd(_)
        )
    }
}

/// Where a miss was served from, for latency selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Source {
    Hit,
    /// Same innermost group (CMP chip) — hierarchical topologies only.
    SameChipCache,
    SameNodeCache,
    LocalMemory,
    RemoteCache,
    RemoteMemory,
}

/// Largest CPU count one machine may simulate. Sharer sets are `u128`
/// bitmasks indexed by CPU id, so a 129th CPU would shift past the mask
/// width — a debug-build panic and silent sharer corruption (wrapping
/// shift) in release. [`crate::MachineConfig`] validation rejects bigger
/// topologies up front with a clear error instead.
pub const MAX_SIM_CPUS: usize = 128;

/// "No exclusive owner" sentinel in [`MemorySystem::owners`].
pub(crate) const NO_OWNER: u32 = u32::MAX;
/// Null link / empty-chain sentinel for watcher arena indices.
pub(crate) const WNIL: u32 = u32::MAX;

/// One parked spinner in the watcher arena. Freed nodes chain through
/// `next` onto the freelist.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WatchNode {
    /// Wake when the line's value differs from this.
    pub(crate) equals: u64,
    pub(crate) cpu: u32,
    pub(crate) next: u32,
}

/// A completed access: when it finishes and what it returned. Watchers it
/// woke are appended to the caller-provided buffer instead (so the hot
/// write path allocates nothing).
#[derive(Debug, Clone, Copy)]
pub(crate) struct AccessOutcome {
    pub complete_at: u64,
    pub value: u64,
}

/// Where each address's state lives in the struct-of-arrays columns.
///
/// Addresses below `dense_end` (the first span's base) are their own
/// slot. At or past it, `map` holds the slot of every materialized word:
/// span words enter on first touch, dense words allocated after a span on
/// allocation. Lookups only; nothing iterates `map`, so its order never
/// reaches an output.
#[derive(Debug, Clone)]
pub(crate) struct SlotMap {
    dense_end: u32,
    /// Number of allocated addresses.
    len: u32,
    map: HashMap<u32, u32>,
}

impl Default for SlotMap {
    fn default() -> SlotMap {
        SlotMap { dense_end: u32::MAX, len: 0, map: HashMap::new() }
    }
}

impl SlotMap {
    /// The slot of `addr`, or `None` for a span word not yet touched.
    ///
    /// # Panics
    ///
    /// Panics if `addr` was not allocated (below the first span, the
    /// caller's column index panics instead).
    #[inline]
    pub(crate) fn get(&self, addr: Addr) -> Option<usize> {
        if addr.0 < self.dense_end {
            Some(addr.index())
        } else {
            self.get_mapped(addr)
        }
    }

    /// Whether every address below `end` is its own slot.
    #[inline]
    pub(crate) fn is_direct(&self, end: usize) -> bool {
        end <= self.dense_end as usize
    }

    /// [`SlotMap::get`] at or past the first span, kept out of line so the
    /// dense path every paper artifact takes stays one compare.
    #[inline(never)]
    fn get_mapped(&self, addr: Addr) -> Option<usize> {
        assert!(addr.0 < self.len, "{addr} not allocated");
        self.map.get(&addr.0).map(|&s| s as usize)
    }
}

/// Final word values of a finished run: the materialized value column and
/// the slot map that locates each address in it.
#[derive(Debug, Clone, Default)]
pub(crate) struct MemImage {
    values: Vec<u64>,
    slots: SlotMap,
}

impl MemImage {
    /// The final value of `addr`; 0 for a span word the run never touched.
    ///
    /// # Panics
    ///
    /// Panics if `addr` was not allocated.
    pub(crate) fn value(&self, addr: Addr) -> u64 {
        self.slots.get(addr).map_or(0, |i| self.values[i])
    }
}

/// The simulated memory: allocation, coherence state, and access costing.
///
/// Line state lives in parallel arrays indexed by slot (see the
/// [module docs](self)).
#[derive(Debug)]
pub struct MemorySystem {
    pub(crate) topo: Arc<Topology>,
    pub(crate) latency: LatencyModel,
    /// Slot of each allocated address.
    pub(crate) slots: SlotMap,
    /// `(base, home)` of every span, in address order — the home of a
    /// span word that has no slot yet.
    spans: Vec<(u32, NodeId)>,
    /// Current value of each word.
    pub(crate) values: Vec<u64>,
    /// CPU holding each line modified/exclusive ([`NO_OWNER`] if none).
    owners: Vec<u32>,
    /// CPUs holding shared copies (bitmask; the simulator supports up to
    /// 128 CPUs, more than the largest machine in the paper).
    sharers: Vec<u128>,
    /// Time until which each line's coherence agent is busy.
    busy_until: Vec<u64>,
    /// Home node of each word.
    pub(crate) homes: Vec<NodeId>,
    /// Head/tail of each line's watcher chain ([`WNIL`] when empty).
    /// CPUs sleeping until the line's value changes park here, in FIFO
    /// order — wake order is registration order.
    pub(crate) watch_head: Vec<u32>,
    pub(crate) watch_tail: Vec<u32>,
    /// Watcher node arena; `wfree` heads its freelist.
    pub(crate) wnodes: Vec<WatchNode>,
    pub(crate) wfree: u32,
    /// Per-node snooping-bus occupancy horizon: every coherence
    /// transaction touching a node serializes on its bus, so lock storms
    /// slow down unrelated data accesses (the paper's interference).
    pub(crate) bus_until: Vec<u64>,
    /// Inter-node link occupancy horizon (one shared resource, matching
    /// the WildFire's single interface).
    pub(crate) link_until: u64,
    /// Recycled wake buffer for the internal reads issued by
    /// [`MemorySystem::wait_while`] (reads never wake watchers, so it
    /// always comes back empty).
    read_scratch: Vec<(CpuId, u64, u64)>,
    /// Node each CPU's thread currently runs on (index = CPU id). Starts
    /// as the topology mapping; injected migrations rewrite entries.
    cpu_nodes: Vec<NodeId>,
    /// Whether any migration has happened. While false (the overwhelmingly
    /// common case) topology-derived shortcuts like the same-chip class
    /// stay valid.
    pub(crate) migrated: bool,
    /// One slow node: `(node, latency multiplier)` for transfers it serves.
    slow_node: Option<(NodeId, u64)>,
    /// Bounded uniform latency noise: `(max_extra, stream)`.
    jitter: Option<(u64, SplitMix64)>,
    /// Set-associative coherence protocol ([`crate::coherence`]), or
    /// `None` for the flat model. `None` keeps the flat hot path exactly
    /// as it was — one predictable branch at the top of
    /// [`MemorySystem::access`], no indirection.
    pub(crate) proto: Option<Box<dyn CoherenceProtocol>>,
}

impl MemorySystem {
    pub(crate) fn new(
        topo: Arc<Topology>,
        latency: LatencyModel,
        protocol: ProtocolKind,
        geometry: CacheGeometry,
    ) -> MemorySystem {
        // Backstop for the MachineConfig-level validation: a sharer bitmask
        // must have a bit for every CPU, in release builds too.
        assert!(
            topo.num_cpus() <= MAX_SIM_CPUS,
            "topology has {} CPUs but the memory system supports at most {} \
             (u128 sharer bitmask)",
            topo.num_cpus(),
            MAX_SIM_CPUS
        );
        let nodes = topo.num_nodes();
        let num_cpus = topo.num_cpus();
        let cpu_nodes = (0..topo.num_cpus()).map(|c| topo.node_of(CpuId(c))).collect();
        MemorySystem {
            topo,
            latency,
            slots: SlotMap::default(),
            spans: Vec::new(),
            values: Vec::new(),
            owners: Vec::new(),
            sharers: Vec::new(),
            busy_until: Vec::new(),
            homes: Vec::new(),
            watch_head: Vec::new(),
            watch_tail: Vec::new(),
            wnodes: Vec::new(),
            wfree: WNIL,
            bus_until: vec![0; nodes],
            link_until: 0,
            read_scratch: Vec::new(),
            cpu_nodes,
            migrated: false,
            slow_node: None,
            jitter: None,
            proto: coherence::build_protocol(protocol, geometry, num_cpus),
        }
    }

    /// The node `cpu`'s thread currently runs on — the topology's mapping
    /// until an injected migration moves it.
    pub fn node_of(&self, cpu: CpuId) -> NodeId {
        self.cpu_nodes[cpu.index()]
    }

    /// Re-homes `cpu`'s thread to `node` (injected migration). Subsequent
    /// accesses by that CPU pay latencies and traffic as from `node`.
    pub(crate) fn migrate_cpu(&mut self, cpu: CpuId, node: NodeId) {
        debug_assert!(node.index() < self.topo.num_nodes());
        self.cpu_nodes[cpu.index()] = node;
        self.migrated = true;
    }

    /// Enables the slow-node fault layer.
    pub(crate) fn set_slow_node(&mut self, node: NodeId, factor: u64) {
        self.slow_node = Some((node, factor));
    }

    /// Enables the latency-jitter fault layer.
    pub(crate) fn set_jitter(&mut self, max_extra: u64, rng: SplitMix64) {
        self.jitter = Some((max_extra, rng));
    }

    /// Fault-layer latency adjustment for a transfer served by
    /// `served_by`: the slow-node multiplier, then bounded jitter. Both
    /// disabled (the default) returns `base` untouched and draws nothing.
    pub(crate) fn faulted_latency(&mut self, base: u64, served_by: NodeId) -> u64 {
        let mut lat = base;
        if let Some((slow, factor)) = self.slow_node {
            if served_by == slow {
                lat *= factor;
            }
        }
        if let Some((max_extra, rng)) = self.jitter.as_mut() {
            lat += rng.next_below(*max_extra + 1);
        }
        lat
    }

    /// The coherence protocol this memory system models.
    pub fn protocol(&self) -> ProtocolKind {
        match &self.proto {
            Some(p) => p.kind(),
            None => ProtocolKind::Flat,
        }
    }

    /// Allocates a fresh zero-initialized word homed in `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is outside the machine's topology.
    pub fn alloc(&mut self, node: NodeId) -> Addr {
        assert!(
            node.index() < self.topo.num_nodes(),
            "{node} outside topology"
        );
        let addr = Addr(self.slots.len);
        self.slots.len = addr.0.checked_add(1).expect("address space exhausted");
        let slot = self.push_word(node);
        if addr.0 >= self.slots.dense_end {
            self.slots.map.insert(addr.0, slot);
        }
        addr
    }

    /// Allocates `n` words homed in `node`.
    pub fn alloc_array(&mut self, node: NodeId, n: usize) -> Vec<Addr> {
        (0..n).map(|_| self.alloc(node)).collect()
    }

    /// Reserves `n` contiguous zero-initialized words homed in `node` and
    /// returns the first address; word `i` of the span is
    /// `base.offset(i)`. Nothing is stored until a word is first touched
    /// (see the [module docs](self)), and no `Vec<Addr>` of handles is
    /// built — at 10^6+ words (the lockserver's object table) either would
    /// dwarf the handful of objects a run actually uses.
    ///
    /// # Panics
    ///
    /// Panics if `node` is outside the machine's topology or the address
    /// space would overflow.
    pub fn alloc_span(&mut self, node: NodeId, n: usize) -> Addr {
        assert!(
            node.index() < self.topo.num_nodes(),
            "{node} outside topology"
        );
        let base = self.slots.len;
        self.slots.len = u32::try_from(base as usize + n).expect("address space exhausted");
        if n > 0 {
            self.slots.dense_end = self.slots.dense_end.min(base);
            self.spans.push((base, node));
        }
        Addr(base)
    }

    /// Appends one word in its initial state to every column; returns its
    /// slot.
    fn push_word(&mut self, home: NodeId) -> u32 {
        let slot = self.values.len() as u32;
        self.values.push(0);
        self.owners.push(NO_OWNER);
        self.sharers.push(0);
        self.busy_until.push(0);
        self.homes.push(home);
        self.watch_head.push(WNIL);
        self.watch_tail.push(WNIL);
        slot
    }

    /// The slot of `addr`, giving an untouched span word one first.
    #[inline]
    pub(crate) fn slot_mut(&mut self, addr: Addr) -> usize {
        match self.slots.get(addr) {
            Some(i) => i,
            None => self.materialize(addr),
        }
    }

    /// Gives a span word its slot (first touch).
    #[cold]
    fn materialize(&mut self, addr: Addr) -> usize {
        let slot = self.push_word(self.span_home(addr));
        self.slots.map.insert(addr.0, slot);
        slot as usize
    }

    /// Home of a word inside a span: the node of the last span starting
    /// at or below it. Cold: dense machines never call it, and inlining
    /// it into the MESI/Dragon line-home lookup measurably slowed them.
    #[cold]
    fn span_home(&self, addr: Addr) -> NodeId {
        let k = self.spans.partition_point(|&(base, _)| base <= addr.0);
        self.spans[k - 1].1
    }

    /// Number of allocated words (the size of the address space).
    pub fn len(&self) -> usize {
        self.slots.len as usize
    }

    /// Whether no words have been allocated.
    pub fn is_empty(&self) -> bool {
        self.slots.len == 0
    }

    /// Number of words whose state is stored: every word allocated outside
    /// a span plus every span word touched so far.
    pub fn materialized_words(&self) -> usize {
        self.values.len()
    }

    /// The current value of a word (debug/assertion use; does not model a
    /// coherence transaction).
    ///
    /// # Panics
    ///
    /// Panics if `addr` was not allocated.
    pub fn peek(&self, addr: Addr) -> u64 {
        self.slots.get(addr).map_or(0, |i| self.values[i])
    }

    /// Directly sets a word's value without simulating an access (for
    /// initialization before the run starts).
    ///
    /// # Panics
    ///
    /// Panics if `addr` was not allocated.
    pub fn poke(&mut self, addr: Addr, value: u64) {
        let i = self.slot_mut(addr);
        self.values[i] = value;
    }

    /// The home node of a word.
    ///
    /// # Panics
    ///
    /// Panics if `addr` was not allocated.
    pub fn home(&self, addr: Addr) -> NodeId {
        match self.slots.get(addr) {
            Some(i) => self.homes[i],
            None => self.span_home(addr),
        }
    }

    fn source_latency(&self, src: Source) -> u64 {
        match src {
            Source::Hit => self.latency.l1_hit,
            Source::SameChipCache => self.latency.same_chip_transfer,
            Source::SameNodeCache => self.latency.same_node_transfer,
            Source::LocalMemory => self.latency.local_memory,
            Source::RemoteCache => self.latency.remote_transfer,
            Source::RemoteMemory => self.latency.remote_memory,
        }
    }

    pub(crate) fn apply_op(value: &mut u64, op: MemOp) -> u64 {
        let old = *value;
        match op {
            MemOp::Read => {}
            MemOp::Write(v) => *value = v,
            MemOp::Cas { expected, new } => {
                if old == expected {
                    *value = new;
                }
            }
            MemOp::Swap(v) => *value = v,
            MemOp::Tas => *value = 1,
            MemOp::FetchAdd(d) => *value = old.wrapping_add(d),
        }
        old
    }

    /// Appends `cpu` to the line's watcher chain (FIFO order).
    fn park_watcher(&mut self, i: usize, cpu: CpuId, equals: u64) {
        let id = if self.wfree != WNIL {
            let id = self.wfree;
            let n = &mut self.wnodes[id as usize];
            self.wfree = n.next;
            *n = WatchNode { equals, cpu: cpu.index() as u32, next: WNIL };
            id
        } else {
            let id = self.wnodes.len() as u32;
            debug_assert_ne!(id, WNIL, "watcher arena exhausted");
            self.wnodes.push(WatchNode { equals, cpu: cpu.index() as u32, next: WNIL });
            id
        };
        if self.watch_tail[i] == WNIL {
            self.watch_head[i] = id;
        } else {
            let tail = self.watch_tail[i] as usize;
            self.wnodes[tail].next = id;
        }
        self.watch_tail[i] = id;
    }

    /// Performs `op` by `cpu` on `addr`, starting at `now`.
    ///
    /// The value effect is applied immediately (transactions on one line
    /// are serialized by the event order, which is also the coherence
    /// order); the returned completion time reflects latency and line
    /// occupancy. Traffic is recorded into `stats`; every counted
    /// transaction additionally emits one `CoherenceTxn` event into
    /// `trace` when a sink is installed. `woken` is cleared and then
    /// filled with `(cpu, wake_time, observed_value)` for each watcher
    /// this access woke — a caller-owned buffer so the per-write wake
    /// burst never allocates.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn access(
        &mut self,
        now: u64,
        cpu: CpuId,
        addr: Addr,
        op: MemOp,
        stats: &mut SimStats,
        trace: Option<&mut (dyn TraceSink + 'static)>,
        woken: &mut Vec<(CpuId, u64, u64)>,
    ) -> AccessOutcome {
        if self.proto.is_some() {
            // Set-associative protocol installed: the protocol object owns
            // the whole access (state machine, geometry, timing). Taken out
            // and put back so it can borrow the rest of the memory system.
            let mut p = self.proto.take().expect("checked above");
            let out = p.access(self, now, cpu, addr, op, stats, trace, woken);
            self.proto = Some(p);
            return out;
        }
        self.flat_access(now, cpu, addr, op, stats, trace, woken)
    }

    /// The flat word-granular access path (every word its own line).
    /// Reached directly when no protocol object is installed, and via
    /// [`crate::coherence::FlatProtocol`] when one is — the two are
    /// pinned equivalent by test.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn flat_access(
        &mut self,
        now: u64,
        cpu: CpuId,
        addr: Addr,
        op: MemOp,
        stats: &mut SimStats,
        trace: Option<&mut (dyn TraceSink + 'static)>,
        woken: &mut Vec<(CpuId, u64, u64)>,
    ) -> AccessOutcome {
        woken.clear();
        // Cache-hit fast paths. Hits arbitrate for no shared resource,
        // draw no fault-layer latency, emit no trace event and count no
        // traffic, so none of the slow path's machinery applies. The
        // coherence-state transitions mirror phase 3 of the slow path.
        let i = self.slot_mut(addr);
        let me = cpu.index() as u32;
        if self.owners[i] == me {
            if !op.is_write() {
                // Owner read-hit: the modified copy demotes to shared.
                stats.count_hit();
                self.owners[i] = NO_OWNER;
                self.sharers[i] |= 1u128 << me;
                return AccessOutcome {
                    complete_at: now + self.latency.l1_hit,
                    value: self.values[i],
                };
            }
            if self.watch_head[i] == WNIL {
                // Owner write-hit with no parked spinners to refill.
                // Owner exclusive implies no sharers to invalidate.
                debug_assert_eq!(self.sharers[i], 0);
                stats.count_hit();
                let old = Self::apply_op(&mut self.values[i], op);
                let mut latency = self.latency.l1_hit;
                if op.is_atomic() {
                    latency += self.latency.atomic_extra;
                }
                return AccessOutcome { complete_at: now + latency, value: old };
            }
        } else if !op.is_write() && self.owners[i] == NO_OWNER && self.sharers[i] & (1u128 << me) != 0
        {
            // Shared read-hit: no state change at all.
            stats.count_hit();
            return AccessOutcome {
                complete_at: now + self.latency.l1_hit,
                value: self.values[i],
            };
        }
        self.access_slow(now, cpu, i, op, stats, trace, woken)
    }

    /// The general access path on the word in slot `i`: classification,
    /// timing/occupancy/traffic, invalidations, coherence update and
    /// watcher wake. (Still reached with `Source::Hit` for an owner write
    /// that must refill parked spinners.)
    #[allow(clippy::too_many_arguments)]
    fn access_slow(
        &mut self,
        now: u64,
        cpu: CpuId,
        i: usize,
        op: MemOp,
        stats: &mut SimStats,
        mut trace: Option<&mut (dyn TraceSink + 'static)>,
        woken: &mut Vec<(CpuId, u64, u64)>,
    ) -> AccessOutcome {
        let my_node = self.node_of(cpu);
        let home = self.homes[i];
        let lat = self.latency;

        // Phase 1: classify the access against current line state.
        let prev_owner = self.owners[i];
        let prev_sharers = self.sharers[i];
        let (src, src_node) = if prev_owner == cpu.index() as u32
            || (!op.is_write() && prev_owner == NO_OWNER && prev_sharers & (1 << cpu.index()) != 0)
        {
            (Source::Hit, my_node)
        } else if prev_owner != NO_OWNER {
            let owner = CpuId(prev_owner as usize);
            let on = self.node_of(owner);
            if on == my_node {
                // On hierarchical machines, a transfer within the
                // innermost group stays on-chip. Once any thread has
                // migrated, topology distance no longer describes
                // where threads run, so the shortcut is disabled.
                if !self.migrated
                    && self.topo.extra_levels() > 0
                    && self.topo.distance(cpu, owner) <= 1
                {
                    (Source::SameChipCache, on)
                } else {
                    (Source::SameNodeCache, on)
                }
            } else {
                (Source::RemoteCache, on)
            }
        } else if home == my_node {
            (Source::LocalMemory, home)
        } else {
            (Source::RemoteMemory, home)
        };

        let mut latency = self.source_latency(src);
        if src != Source::Hit {
            // Fault layers touch only real transfers; hits stay in-cache.
            latency = self.faulted_latency(latency, src_node);
        }
        if op.is_atomic() {
            latency += lat.atomic_extra;
        }

        // Phase 2: timing, occupancy and traffic. A missing transaction
        // arbitrates for the line, the requester's node bus, and — when it
        // crosses nodes — the source node's bus plus the inter-node link.
        let start;
        if src == Source::Hit {
            // Hits do not arbitrate for any shared resource.
            stats.count_hit();
            start = now;
        } else if src == Source::SameChipCache {
            // On-chip transfer: serializes on the line but stays off the
            // node's snooping bus and the interconnect.
            stats.count_local(my_node);
            start = now.max(self.busy_until[i]);
            self.busy_until[i] = start + lat.local_occupancy;
            if let Some(t) = trace.as_deref_mut() {
                t.record(
                    start,
                    SimEvent::CoherenceTxn {
                        cpu,
                        node: my_node,
                        home,
                        global: false,
                    },
                );
            }
        } else {
            let global = matches!(src, Source::RemoteCache | Source::RemoteMemory);
            if global {
                stats.count_global(my_node);
            } else {
                stats.count_local(my_node);
            }
            let line_busy = self.busy_until[i];
            let mut s = now.max(line_busy).max(self.bus_until[my_node.index()]);
            if global {
                s = s
                    .max(self.link_until)
                    .max(self.bus_until[src_node.index()]);
            }
            start = s;
            self.busy_until[i] = start
                + if global {
                    lat.global_occupancy
                } else {
                    lat.local_occupancy
                };
            // Atomic read-modify-writes cannot be split on a snooping bus:
            // they hold bus resources for several address slots.
            let bus_occ = if op.is_atomic() {
                lat.bus_occupancy * 2
            } else {
                lat.bus_occupancy
            };
            self.bus_until[my_node.index()] = start + bus_occ;
            if global {
                self.bus_until[src_node.index()] = start + bus_occ;
                self.link_until = start
                    + if op.is_atomic() {
                        lat.link_occupancy * 2
                    } else {
                        lat.link_occupancy
                    };
            }
            if let Some(t) = trace.as_deref_mut() {
                t.record(
                    start,
                    SimEvent::CoherenceTxn {
                        cpu,
                        node: my_node,
                        home,
                        global,
                    },
                );
            }
        }
        let complete_at = start + latency;

        // Invalidation traffic: a write that found the line *unowned* but
        // shared sends one invalidation per other node holding a copy (the
        // data fetch above already paid for reaching a modified owner).
        if op.is_write() && prev_owner == NO_OWNER {
            let mut inval_nodes = 0u64; // bitmask over nodes
            let mut sharers = prev_sharers;
            while sharers != 0 {
                let c = sharers.trailing_zeros() as usize;
                sharers &= sharers - 1;
                if c != cpu.index() {
                    inval_nodes |= 1 << self.node_of(CpuId(c)).index();
                }
            }
            while inval_nodes != 0 {
                let n = inval_nodes.trailing_zeros() as usize;
                inval_nodes &= inval_nodes - 1;
                let global = NodeId(n) != my_node;
                if global {
                    stats.count_global(NodeId(n));
                } else {
                    stats.count_local(NodeId(n));
                }
                if let Some(t) = trace.as_deref_mut() {
                    t.record(
                        start,
                        SimEvent::CoherenceTxn {
                            cpu,
                            node: NodeId(n),
                            home,
                            global,
                        },
                    );
                }
            }
        }

        // Phase 3: apply the value effect and update coherence state.
        let old = Self::apply_op(&mut self.values[i], op);
        let new_value = self.values[i];
        if op.is_write() {
            self.owners[i] = cpu.index() as u32;
            self.sharers[i] = 0;
        } else {
            // Read: a previous modified owner's data is now shared.
            if prev_owner != NO_OWNER {
                self.owners[i] = NO_OWNER;
                self.sharers[i] |= 1 << prev_owner;
            }
            self.sharers[i] |= 1 << cpu.index();
        }

        // Phase 4: wake watchers whose condition now holds. Each wake is a
        // refill — an invalidate-then-refetch transaction from the new
        // owner — and refills serialize on the line's occupancy. Watchers
        // that stay parked are relinked in place (the chain nodes are
        // reused), so the burst allocates nothing.
        if op.is_write() && self.watch_head[i] != WNIL {
            let mut id = self.watch_head[i];
            let mut kept_head = WNIL;
            let mut kept_tail = WNIL;
            let mut busy = self.busy_until[i].max(complete_at);
            let mut new_sharers = 0u128;
            while id != WNIL {
                let WatchNode { equals, cpu: wc, next } = self.wnodes[id as usize];
                // *Every* write invalidates every spinner's cached
                // copy; each refills (traffic + bus time) and
                // re-checks. Spinners whose condition still fails stay
                // parked but have already paid — this is the O(N²)
                // test-and-test&set stampede.
                let wcpu = CpuId(wc as usize);
                let w_node = self.node_of(wcpu);
                let global = w_node != my_node;
                let (refill, occ) = if global {
                    stats.count_global(w_node);
                    (lat.remote_transfer, lat.global_occupancy)
                } else {
                    stats.count_local(w_node);
                    (lat.same_node_transfer, lat.local_occupancy)
                };
                // Refills are served by the writer's cache.
                let refill = self.faulted_latency(refill, my_node);
                // The refill burst arbitrates for the same shared
                // resources as any other transaction.
                let mut s = busy.max(self.bus_until[w_node.index()]);
                if global {
                    s = s
                        .max(self.link_until)
                        .max(self.bus_until[my_node.index()]);
                }
                let wake_at = s + refill;
                busy = s + occ;
                if let Some(t) = trace.as_deref_mut() {
                    t.record(
                        s,
                        SimEvent::CoherenceTxn {
                            cpu: wcpu,
                            node: w_node,
                            home,
                            global,
                        },
                    );
                }
                self.bus_until[w_node.index()] = s + lat.bus_occupancy;
                if global {
                    self.bus_until[my_node.index()] = s + lat.bus_occupancy;
                    self.link_until = s + lat.link_occupancy;
                }
                new_sharers |= 1 << wc;
                if new_value != equals {
                    woken.push((wcpu, wake_at, new_value));
                    // Free the node.
                    self.wnodes[id as usize].next = self.wfree;
                    self.wfree = id;
                } else {
                    // Keep parked, preserving FIFO order.
                    self.wnodes[id as usize].next = WNIL;
                    if kept_tail == WNIL {
                        kept_head = id;
                    } else {
                        self.wnodes[kept_tail as usize].next = id;
                    }
                    kept_tail = id;
                }
                id = next;
            }
            self.watch_head[i] = kept_head;
            self.watch_tail[i] = kept_tail;
            self.busy_until[i] = busy;
            self.sharers[i] |= new_sharers;
            // Refilled watchers demote the writer's copy to shared.
            if !woken.is_empty() && self.owners[i] != NO_OWNER {
                self.sharers[i] |= 1 << self.owners[i];
                self.owners[i] = NO_OWNER;
            }
        }

        AccessOutcome {
            complete_at,
            value: old,
        }
    }

    /// Begins a `WaitWhile`: if the word already differs from `equals`,
    /// returns the read outcome; otherwise registers `cpu` as a watcher
    /// and returns `None` (the engine will be woken by a future write).
    ///
    /// A spinner that does not hold a valid copy of the line must fetch it
    /// to observe that the value has not changed — that read transaction
    /// is charged here even though the CPU then sleeps. This is the
    /// re-read a failed `tas` performs before resuming its load loop.
    pub(crate) fn wait_while(
        &mut self,
        now: u64,
        cpu: CpuId,
        addr: Addr,
        equals: u64,
        stats: &mut SimStats,
        trace: Option<&mut (dyn TraceSink + 'static)>,
    ) -> Option<(u64, u64)> {
        let i = self.slot_mut(addr);
        if self.values[i] != equals {
            let mut scratch = std::mem::take(&mut self.read_scratch);
            let out = self.access(now, cpu, addr, MemOp::Read, stats, trace, &mut scratch);
            debug_assert!(scratch.is_empty(), "reads wake no watchers");
            self.read_scratch = scratch;
            return Some((out.complete_at, out.value));
        }
        let holds_copy = match &self.proto {
            Some(p) => p.holds_copy(self, cpu, addr),
            None => self.flat_holds_copy(cpu, addr),
        };
        if !holds_copy {
            // Fetch the line (traffic + line/bus occupancy) before
            // sleeping on it.
            let mut scratch = std::mem::take(&mut self.read_scratch);
            let _ = self.access(now, cpu, addr, MemOp::Read, stats, trace, &mut scratch);
            debug_assert!(scratch.is_empty(), "reads wake no watchers");
            self.read_scratch = scratch;
        }
        self.park_watcher(i, cpu, equals);
        None
    }

    /// Whether `cpu` holds a valid copy of `addr` under the flat model
    /// (exclusive owner or sharer of the word).
    pub(crate) fn flat_holds_copy(&self, cpu: CpuId, addr: Addr) -> bool {
        self.slots.get(addr).is_some_and(|i| {
            self.owners[i] == cpu.index() as u32 || self.sharers[i] & (1 << cpu.index()) != 0
        })
    }

    /// Consumes the memory system, keeping only what a report needs to
    /// answer final values: the value column and the slot map, moved.
    pub(crate) fn into_image(self) -> MemImage {
        MemImage { values: self.values, slots: self.slots }
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LatencyModel;
    use nuca_topology::Topology;
    use std::panic::AssertUnwindSafe;

    fn mem2x2() -> (MemorySystem, SimStats) {
        let topo = Arc::new(Topology::symmetric(2, 2));
        (
            MemorySystem::new(topo, LatencyModel::wildfire(), ProtocolKind::Flat, CacheGeometry::default_geometry()),
            SimStats::new(),
        )
    }

    /// Test shim for the pre-buffer `access` signature: discards wakes,
    /// no tracing.
    fn access(
        mem: &mut MemorySystem,
        now: u64,
        cpu: CpuId,
        addr: Addr,
        op: MemOp,
        st: &mut SimStats,
    ) -> AccessOutcome {
        let mut woken = Vec::new();
        mem.access(now, cpu, addr, op, st, None, &mut woken)
    }

    /// Like [`access`] but returns the woken watchers too.
    #[allow(clippy::type_complexity)]
    fn access_w(
        mem: &mut MemorySystem,
        now: u64,
        cpu: CpuId,
        addr: Addr,
        op: MemOp,
        st: &mut SimStats,
    ) -> (AccessOutcome, Vec<(CpuId, u64, u64)>) {
        let mut woken = Vec::new();
        let out = mem.access(now, cpu, addr, op, st, None, &mut woken);
        (out, woken)
    }

    #[test]
    fn alloc_span_is_contiguous_and_usable() {
        let (mut mem, mut st) = mem2x2();
        let first = mem.alloc(NodeId(0));
        let base = mem.alloc_span(NodeId(1), 1000);
        assert_eq!(base.index(), first.index() + 1);
        assert_eq!(mem.len(), 1001);
        // Span words behave exactly like individually allocated ones.
        let mid = base.offset(500);
        assert_eq!(mem.home(mid), NodeId(1));
        assert_eq!(mem.peek(mid), 0);
        let _ = access(&mut mem, 0, CpuId(0), mid, MemOp::Write(7), &mut st);
        assert_eq!(mem.peek(mid), 7);
        assert_eq!(mem.peek(base.offset(499)), 0, "neighbours untouched");
        // Allocation continues cleanly past the span.
        let next = mem.alloc(NodeId(0));
        assert_eq!(next.index(), base.offset(999).index() + 1);
    }

    #[test]
    fn span_words_materialize_on_first_touch() {
        let (mut mem, mut st) = mem2x2();
        let _lock = mem.alloc(NodeId(0));
        let base = mem.alloc_span(NodeId(1), 1_000_000);
        let tail = mem.alloc(NodeId(0));
        assert_eq!(mem.len(), 1_000_002);
        assert_eq!(mem.materialized_words(), 2, "a span reserves addresses only");
        let w = base.offset(123_456);
        assert_eq!((mem.peek(w), mem.home(w)), (0, NodeId(1)));
        assert_eq!(mem.home(tail), NodeId(0));
        assert_eq!(mem.materialized_words(), 2, "peek and home store nothing");
        let _ = access(&mut mem, 0, CpuId(0), w, MemOp::Write(4), &mut st);
        assert_eq!((mem.peek(w), mem.home(w)), (4, NodeId(1)));
        assert_eq!(mem.materialized_words(), 3);
        mem.poke(base.offset(9), 1);
        assert!(mem.wait_while(0, CpuId(1), base.offset(10), 0, &mut st, None).is_none());
        let _ = access(&mut mem, 10, CpuId(2), w, MemOp::Read, &mut st);
        assert_eq!(mem.materialized_words(), 5, "poke and wait_while materialize once");
        let (_, woken) = access_w(&mut mem, 20, CpuId(0), base.offset(10), MemOp::Write(2), &mut st);
        assert_eq!(woken.len(), 1, "a watcher parked on a span word wakes");
        let image = mem.into_image();
        assert_eq!(image.value(w), 4);
        assert_eq!(image.value(base.offset(10)), 2);
        assert_eq!(image.value(base.offset(999_999)), 0, "untouched words stay 0");
    }

    #[test]
    fn addresses_past_the_end_panic_with_spans() {
        let (mut mem, _) = mem2x2();
        let _ = mem.alloc_span(NodeId(1), 10);
        let past = Addr(mem.len() as u32);
        let panics = |f: &mut dyn FnMut()| std::panic::catch_unwind(AssertUnwindSafe(f)).is_err();
        assert!(panics(&mut || _ = mem.peek(past)), "peek past the end");
        assert!(panics(&mut || _ = mem.home(past)), "home past the end");
        assert!(panics(&mut || mem.poke(past, 1)), "poke past the end");
        let image = mem.into_image();
        assert!(panics(&mut || _ = image.value(past)), "final value past the end");
    }

    #[test]
    fn addr_encoding_roundtrip() {
        let a = Addr(0);
        assert_eq!(a.encode(), 1);
        assert_eq!(Addr::decode(1), Some(a));
        assert_eq!(Addr::decode(0), None);
        let b = Addr(41);
        assert_eq!(Addr::decode(b.encode()), Some(b));
    }

    #[test]
    fn ops_apply_correct_values() {
        let (mut mem, mut st) = mem2x2();
        let a = mem.alloc(NodeId(0));
        let cpu = CpuId(0);
        assert_eq!(access(&mut mem, 0, cpu, a, MemOp::Write(5), &mut st).value, 0);
        assert_eq!(mem.peek(a), 5);
        assert_eq!(
            access(&mut mem, 0, cpu, a, MemOp::Cas { expected: 5, new: 7 }, &mut st).value,
            5
        );
        assert_eq!(mem.peek(a), 7);
        assert_eq!(
            access(&mut mem, 0, cpu, a, MemOp::Cas { expected: 5, new: 9 }, &mut st).value,
            7,
            "failed cas returns old value"
        );
        assert_eq!(mem.peek(a), 7, "failed cas does not write");
        assert_eq!(access(&mut mem, 0, cpu, a, MemOp::Swap(1), &mut st).value, 7);
        assert_eq!(access(&mut mem, 0, cpu, a, MemOp::Tas, &mut st).value, 1);
        assert_eq!(access(&mut mem, 0, cpu, a, MemOp::FetchAdd(3), &mut st).value, 1);
        assert_eq!(mem.peek(a), 4);
        assert_eq!(access(&mut mem, 0, cpu, a, MemOp::Read, &mut st).value, 4);
    }

    #[test]
    fn latency_classes_ordered() {
        let (mut mem, mut st) = mem2x2();
        let a = mem.alloc(NodeId(0));
        // CPU 0 (node 0) writes: local memory fetch.
        let w0 = access(&mut mem, 0, CpuId(0), a, MemOp::Write(1), &mut st);
        let t_local_mem = w0.complete_at;
        // CPU 1 (node 0) writes: same-node cache-to-cache.
        let w1 = access(&mut mem, w0.complete_at, CpuId(1), a, MemOp::Write(2), &mut st);
        let t_same = w1.complete_at - w0.complete_at;
        // CPU 2 (node 1) writes: remote cache-to-cache.
        let w2 = access(&mut mem, w1.complete_at, CpuId(2), a, MemOp::Write(3), &mut st);
        let t_remote = w2.complete_at - w1.complete_at;
        assert!(t_same < t_local_mem + 10, "cache transfer beats memory+eps");
        assert!(
            t_remote > 4 * t_same,
            "NUCA ratio visible: remote {t_remote} vs same-node {t_same}"
        );
        // Re-write by the owner is a hit.
        let w3 = access(&mut mem, w2.complete_at, CpuId(2), a, MemOp::Write(4), &mut st);
        assert!(w3.complete_at - w2.complete_at <= LatencyModel::wildfire().l1_hit);
    }

    #[test]
    fn traffic_classification() {
        let (mut mem, mut st) = mem2x2();
        let a = mem.alloc(NodeId(0));
        access(&mut mem, 0, CpuId(0), a, MemOp::Write(1), &mut st); // local mem fetch
        assert_eq!(st.traffic().local, 1);
        assert_eq!(st.traffic().global, 0);
        access(&mut mem, 100, CpuId(2), a, MemOp::Write(2), &mut st); // remote cache fetch
        assert_eq!(st.traffic().global, 1);
        access(&mut mem, 200, CpuId(2), a, MemOp::Write(3), &mut st); // hit
        assert_eq!(st.traffic().total(), 2, "hits add no traffic");
        assert_eq!(st.cache_hits(), 1);
    }

    #[test]
    fn reads_share_then_write_invalidates() {
        let (mut mem, mut st) = mem2x2();
        let a = mem.alloc(NodeId(0));
        access(&mut mem, 0, CpuId(0), a, MemOp::Write(9), &mut st);
        // Two readers pull shared copies.
        access(&mut mem, 100, CpuId(1), a, MemOp::Read, &mut st);
        access(&mut mem, 200, CpuId(2), a, MemOp::Read, &mut st);
        // Re-read by the same CPU is free.
        let before = st.traffic().total();
        access(&mut mem, 300, CpuId(2), a, MemOp::Read, &mut st);
        assert_eq!(st.traffic().total(), before, "shared re-read is a hit");
        // A write invalidates the sharers (one local, one remote inval).
        let before = st.traffic();
        access(&mut mem, 400, CpuId(0), a, MemOp::Write(1), &mut st);
        let after = st.traffic();
        assert!(after.total() > before.total(), "invalidations counted");
        assert!(after.global > before.global, "remote sharer invalidated");
    }

    #[test]
    fn line_occupancy_serializes_contending_writers() {
        let (mut mem, mut st) = mem2x2();
        let a = mem.alloc(NodeId(0));
        access(&mut mem, 0, CpuId(0), a, MemOp::Write(1), &mut st);
        // Two foreign writers issue at the same instant: the second must
        // be pushed behind the first by the occupancy horizon.
        let w1 = access(&mut mem, 1000, CpuId(1), a, MemOp::Write(2), &mut st);
        let w2 = access(&mut mem, 1000, CpuId(2), a, MemOp::Write(3), &mut st);
        assert!(w2.complete_at > w1.complete_at);
    }

    #[test]
    fn wait_while_completes_immediately_when_value_differs() {
        let (mut mem, mut st) = mem2x2();
        let a = mem.alloc(NodeId(0));
        mem.poke(a, 7);
        let out = mem.wait_while(0, CpuId(0), a, 3, &mut st, None);
        assert!(matches!(out, Some((_, 7))));
    }

    #[test]
    fn wait_while_wakes_on_conflicting_write() {
        let (mut mem, mut st) = mem2x2();
        let a = mem.alloc(NodeId(0));
        // CPU 3 (node 1) waits for the value to stop being 0.
        assert!(mem.wait_while(0, CpuId(3), a, 0, &mut st, None).is_none());
        // A write of 0 does not wake it.
        let (_, woken) = access_w(&mut mem, 10, CpuId(0), a, MemOp::Write(0), &mut st);
        assert!(woken.is_empty());
        // A write of 5 wakes it, charging a (global) refill.
        let g_before = st.traffic().global;
        let (out, woken) = access_w(&mut mem, 20, CpuId(0), a, MemOp::Write(5), &mut st);
        assert_eq!(woken.len(), 1);
        let (cpu, wake_at, val) = woken[0];
        assert_eq!(cpu, CpuId(3));
        assert_eq!(val, 5);
        assert!(wake_at > out.complete_at, "refill happens after the write");
        assert!(st.traffic().global > g_before, "cross-node refill is global");
    }

    #[test]
    fn multiple_watchers_wake_staggered() {
        let (mut mem, mut st) = mem2x2();
        let a = mem.alloc(NodeId(0));
        assert!(mem.wait_while(0, CpuId(1), a, 0, &mut st, None).is_none());
        assert!(mem.wait_while(0, CpuId(2), a, 0, &mut st, None).is_none());
        assert!(mem.wait_while(0, CpuId(3), a, 0, &mut st, None).is_none());
        let (_, woken) = access_w(&mut mem, 10, CpuId(0), a, MemOp::Write(1), &mut st);
        assert_eq!(woken.len(), 3);
        let mut times: Vec<u64> = woken.iter().map(|w| w.1).collect();
        let sorted = {
            let mut t = times.clone();
            t.sort();
            t
        };
        times.sort();
        assert_eq!(times, sorted);
        // Strictly staggered: the burst serializes on the line.
        assert!(times[0] < times[1] && times[1] < times[2]);
    }

    #[test]
    fn watcher_list_spills_past_inline_capacity() {
        // More concurrent watchers than the inline buffer holds: all of
        // them must still be tracked and woken.
        let topo = Arc::new(Topology::symmetric(2, 4));
        let mut mem = MemorySystem::new(topo, LatencyModel::wildfire(), ProtocolKind::Flat, CacheGeometry::default_geometry());
        let mut st = SimStats::new();
        let a = mem.alloc(NodeId(0));
        for c in 1..8 {
            assert!(mem.wait_while(0, CpuId(c), a, 0, &mut st, None).is_none());
        }
        let (_, woken) = access_w(&mut mem, 10, CpuId(0), a, MemOp::Write(1), &mut st);
        assert_eq!(woken.len(), 7, "every spilled watcher wakes");
    }

    #[test]
    fn flat_topology_never_uses_chip_class() {
        // On a flat machine every same-node pair is "distance 1", but the
        // chip latency class must not apply (it would silently change all
        // of the paper's experiments).
        let topo = Arc::new(Topology::symmetric(2, 2));
        let mut lat = LatencyModel::wildfire();
        lat.same_chip_transfer = 1; // absurdly cheap — detectable if used
        let mut mem = MemorySystem::new(topo, lat, ProtocolKind::Flat, CacheGeometry::default_geometry());
        let mut st = SimStats::new();
        let a = mem.alloc(NodeId(0));
        access(&mut mem, 0, CpuId(0), a, MemOp::Write(1), &mut st);
        let w = access(&mut mem, 1000, CpuId(1), a, MemOp::Write(2), &mut st);
        assert!(
            w.complete_at - 1000 >= lat.same_node_transfer,
            "flat same-node transfer must pay the full node latency"
        );
    }

    #[test]
    fn hierarchical_topology_chip_transfers_cheap_and_busless() {
        let topo = Arc::new(
            Topology::builder()
                .hierarchical_node(&[2, 2])
                .hierarchical_node(&[2, 2])
                .build()
                .unwrap(),
        );
        let lat = LatencyModel::cmp_numa();
        let mut mem = MemorySystem::new(topo, lat, ProtocolKind::Flat, CacheGeometry::default_geometry());
        let mut st = SimStats::new();
        let a = mem.alloc(NodeId(0));
        access(&mut mem, 0, CpuId(0), a, MemOp::Write(1), &mut st);
        // cpu1 shares cpu0's chip; cpu2 is the other chip of node 0.
        let chip = access(&mut mem, 10_000, CpuId(1), a, MemOp::Write(2), &mut st);
        let cross = access(&mut mem, 20_000, CpuId(2), a, MemOp::Write(3), &mut st);
        assert_eq!(chip.complete_at - 10_000, lat.same_chip_transfer);
        assert!(cross.complete_at - 20_000 >= lat.same_node_transfer);
        // Both are local traffic.
        assert_eq!(st.traffic().global, 0);
    }

    #[test]
    #[should_panic(expected = "outside topology")]
    fn alloc_foreign_node_rejected() {
        let (mut mem, _) = mem2x2();
        let _ = mem.alloc(NodeId(7));
    }

    #[test]
    fn migration_reclassifies_traffic() {
        let (mut mem, mut st) = mem2x2();
        assert_eq!(mem.node_of(CpuId(0)), NodeId(0));
        let a = mem.alloc(NodeId(0));
        // CPU 2 (node 1) owns the line; CPU 0 fetches it cross-node.
        access(&mut mem, 0, CpuId(2), a, MemOp::Write(1), &mut st);
        let g_before = st.traffic().global;
        access(&mut mem, 10_000, CpuId(0), a, MemOp::Write(2), &mut st);
        assert_eq!(st.traffic().global, g_before + 1, "cross-node fetch");
        // Migrate CPU 0 onto node 1: the same fetch is now node-local.
        mem.migrate_cpu(CpuId(0), NodeId(1));
        assert_eq!(mem.node_of(CpuId(0)), NodeId(1));
        access(&mut mem, 20_000, CpuId(2), a, MemOp::Write(3), &mut st);
        let g_mid = st.traffic().global;
        access(&mut mem, 30_000, CpuId(0), a, MemOp::Write(4), &mut st);
        assert_eq!(st.traffic().global, g_mid, "post-migration fetch is local");
    }

    #[test]
    fn slow_node_multiplies_served_transfers_only() {
        let t_from = |slow: bool| {
            let (mut mem, mut st) = mem2x2();
            if slow {
                mem.set_slow_node(NodeId(1), 4);
            }
            let a = mem.alloc(NodeId(0));
            // Owner on node 1; requester on node 0 → served by node 1.
            access(&mut mem, 0, CpuId(2), a, MemOp::Write(1), &mut st);
            let out = access(&mut mem, 100_000, CpuId(0), a, MemOp::Write(2), &mut st);
            let served_by_slow = out.complete_at - 100_000;
            // Now owner on node 0; requester on node 1 → served by node 0.
            let out = access(&mut mem, 200_000, CpuId(2), a, MemOp::Write(3), &mut st);
            let served_by_fast = out.complete_at - 200_000;
            (served_by_slow, served_by_fast)
        };
        let (base_slow, base_fast) = t_from(false);
        let (slow, fast) = t_from(true);
        assert!(slow > 3 * base_slow, "slow node's transfers pay the factor");
        assert_eq!(fast, base_fast, "the healthy node is untouched");
    }

    #[test]
    fn jitter_bounded_and_deterministic() {
        let run = |jitter: bool| {
            let (mut mem, mut st) = mem2x2();
            if jitter {
                mem.set_jitter(50, SplitMix64::new(77));
            }
            let a = mem.alloc(NodeId(0));
            let mut times = Vec::new();
            let mut now = 0;
            for i in 0..20u64 {
                let cpu = CpuId((i % 4) as usize);
                let out = access(&mut mem, now, cpu, a, MemOp::Write(i), &mut st);
                times.push(out.complete_at - now);
                now = out.complete_at + 1_000;
            }
            times
        };
        let base = run(false);
        let j1 = run(true);
        let j2 = run(true);
        assert_eq!(j1, j2, "jitter is seed-reproducible");
        assert_ne!(base, j1, "jitter actually perturbs latencies");
        for (b, j) in base.iter().zip(&j1) {
            assert!(*j >= *b && *j <= *b + 50, "bounded: {b} -> {j}");
        }
    }
}
