//! Differential test: a span's words materialize on first touch, and that
//! must be unobservable. Two machines with the same config and seed run the
//! same seeded operation mix; one allocates its per-node object regions
//! with `alloc_span` (lazy), the other the same consecutive addresses with
//! `alloc_array` (eager). Every report field and the final value of every
//! address, touched or not, must agree — under flat, MESI and Dragon, with
//! and without the full fault stack.

use nuca_topology::NodeId;
use nucasim::{
    Addr, Command, CpuCtx, FaultConfig, HolderPreemptConfig, JitterConfig, Machine, MachineConfig,
    MigrationConfig, Program, ProtocolKind, SimReport, SlowNodeConfig, SplitMix64,
};

const NODES: usize = 2;
const CPUS_PER_NODE: usize = 3;
const REGION_WORDS: usize = 4_000;
const OPS_PER_CPU: u32 = 400;

/// Issues a seeded mix of reads, writes, atomics and waits over `targets`.
struct Mix {
    targets: Vec<Addr>,
    rng: SplitMix64,
    left: u32,
    /// The word a just-issued read targets, so the next resume may sleep
    /// until the value that read observed changes.
    last_read: Option<Addr>,
}

impl Program for Mix {
    fn resume(&mut self, ctx: &mut CpuCtx<'_>, last: Option<u64>) -> Command {
        if let (Some(addr), Some(seen)) = (self.last_read.take(), last) {
            if self.rng.next_below(2) == 0 {
                return Command::WaitWhile { addr, equals: seen };
            }
        }
        if self.left == 0 {
            return Command::Done;
        }
        self.left -= 1;
        let addr = self.targets[self.rng.next_below(self.targets.len() as u64) as usize];
        let v = self.rng.next_below(4);
        match self.rng.next_below(6) {
            0 => {
                self.last_read = Some(addr);
                Command::Read(addr)
            }
            1 => Command::Write(addr, v),
            2 => {
                // Counted as an acquisition of lock 0, which feeds the
                // holder-preempt fault layer.
                ctx.record_acquire(0);
                Command::Cas {
                    addr,
                    expected: v,
                    new: v + 1,
                }
            }
            3 => Command::Swap { addr, value: v },
            4 => Command::FetchAdd { addr, delta: 1 },
            _ => Command::WaitWhile { addr, equals: v },
        }
    }
}

/// Builds a machine whose object regions come from `alloc_span` (`lazy`)
/// or `alloc_array`, runs the mix, and returns the report with the
/// address-space size and each address's pre-run `(value, home)`.
fn run(cfg: &MachineConfig, lazy: bool) -> (SimReport, usize, Vec<(u64, NodeId)>) {
    let mut m = Machine::new(cfg.clone());
    let mem = m.mem_mut();
    // Dense words before the regions (lock-like state).
    let head: Vec<Addr> = (0..5).map(|i| mem.alloc(NodeId(i % NODES))).collect();
    mem.poke(head[0], 3);
    let regions: Vec<Addr> = (0..NODES)
        .map(|n| {
            if lazy {
                mem.alloc_span(NodeId(n), REGION_WORDS)
            } else {
                mem.alloc_array(NodeId(n), REGION_WORDS)[0]
            }
        })
        .collect();
    // Dense words after the regions.
    let tail: Vec<Addr> = (0..4).map(|i| mem.alloc(NodeId(i % NODES))).collect();
    mem.poke(tail[1], 9);
    mem.poke(regions[1].offset(7), 5);

    let mut pick = SplitMix64::new(cfg.seed ^ 0x5AD);
    let mut targets: Vec<Addr> = head.iter().chain(&tail).copied().collect();
    for &base in &regions {
        // The region edges, a run of line-sharing neighbours, and a sample.
        targets.extend([0, 1, 2, 3, REGION_WORDS - 1].map(|i| base.offset(i)));
        targets.extend((0..12).map(|_| base.offset(pick.next_below(REGION_WORDS as u64) as usize)));
    }
    let words = m.mem().len();
    let initial = (0..words)
        .map(|i| {
            let a = Addr::decode(i as u64 + 1).expect("in range");
            (m.mem().peek(a), m.mem().home(a))
        })
        .collect();
    for c in 0..NODES * CPUS_PER_NODE {
        let mix = Mix {
            targets: targets.clone(),
            rng: SplitMix64::new(cfg.seed.wrapping_mul(31) + c as u64),
            left: OPS_PER_CPU,
            last_read: None,
        };
        m.add_program(nuca_topology::CpuId(c), Box::new(mix));
    }
    m.run(50_000_000);
    (m.into_report(), words, initial)
}

fn assert_same(cfg: &MachineConfig, what: &str) {
    let (lazy, words, lazy_init) = run(cfg, true);
    let (eager, eager_words, eager_init) = run(cfg, false);
    assert_eq!(words, eager_words, "{what}: address space size");
    assert_eq!(lazy_init, eager_init, "{what}: pre-run peek/home");
    assert!(lazy.events > 0, "{what}: the mix ran");
    assert_eq!(lazy.end_time, eager.end_time, "{what}: end_time");
    assert_eq!(
        lazy.finished_all, eager.finished_all,
        "{what}: finished_all"
    );
    assert_eq!(
        lazy.finish_times, eager.finish_times,
        "{what}: finish_times"
    );
    assert_eq!(lazy.traffic, eager.traffic, "{what}: traffic");
    assert_eq!(
        lazy.node_traffic, eager.node_traffic,
        "{what}: node_traffic"
    );
    assert_eq!(
        format!("{:?}", lazy.lock_traces),
        format!("{:?}", eager.lock_traces),
        "{what}: lock_traces"
    );
    assert_eq!(
        lazy.lock_tallies, eager.lock_tallies,
        "{what}: lock_tallies"
    );
    assert_eq!(lazy.preemptions, eager.preemptions, "{what}: preemptions");
    assert_eq!(lazy.migrations, eager.migrations, "{what}: migrations");
    assert_eq!(
        lazy.anger_episodes, eager.anger_episodes,
        "{what}: anger_episodes"
    );
    assert_eq!(lazy.cache_hits, eager.cache_hits, "{what}: cache_hits");
    assert_eq!(lazy.events, eager.events, "{what}: events");
    for i in 0..words {
        let a = Addr::decode(i as u64 + 1).expect("in range");
        assert_eq!(
            lazy.final_value(a),
            eager.final_value(a),
            "{what}: final value of {a}"
        );
    }
}

fn full_faults() -> FaultConfig {
    FaultConfig::none()
        .with_holder_preempt(HolderPreemptConfig {
            per_mille: 200,
            quantum: 20_000,
        })
        .with_migration(MigrationConfig {
            mean_gap: 40_000,
            pause: 1_000,
        })
        .with_slow_node(SlowNodeConfig { node: 1, factor: 3 })
        .with_jitter(JitterConfig { max_extra: 40 })
}

#[test]
fn lazy_span_matches_eager_words() {
    for protocol in [ProtocolKind::Flat, ProtocolKind::Mesi, ProtocolKind::Dragon] {
        for faulted in [false, true] {
            for seed in [1, 7] {
                let mut cfg = MachineConfig::wildfire(NODES, CPUS_PER_NODE)
                    .with_protocol(protocol)
                    .with_seed(seed);
                if faulted {
                    cfg = cfg.with_faults(full_faults());
                }
                assert_same(&cfg, &format!("{protocol:?} faulted={faulted} seed={seed}"));
            }
        }
    }
}
