//! Layer probes: fixed, recorded inputs timed from the benchmark's own
//! code, each isolating one layer's cost. They run in the traced run only
//! (see [`Ctx::probe`]).

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use hbo_locks::{LockCatalog, LockKind};
use nuca_topology::{CpuId, NodeId};
use nuca_workloads::modern::{
    run_modern_profiled, run_modern_raw, run_modern_recorded, run_modern_traced, ModernConfig,
};
use nuca_workloads::zipf::Zipfian;
use nucasim::sched::{BinHeapQueue, EventQueue, TimeWheel};
use nucasim::{
    Command, CpuCtx, Machine, MachineConfig, Program, ProtocolKind, SchedOp, SimReport, SimStats,
    SplitMix64,
};
use nucasim_locks::{build_lock, DriveResult, GtSlots, SessionDriver, SimLockParams};

use crate::calc::median;
use crate::Ctx;

/// Timed repetitions per probe measurement; probes report the median.
const PROBE_REPS: usize = 7;

/// The Fig. 5 cell every simulator probe runs: 28 CPUs at the Table 2
/// operating point, short enough to repeat.
fn probe_cell(kind: LockKind, iterations: u32) -> ModernConfig {
    ModernConfig {
        kind,
        machine: MachineConfig::wildfire(2, 14),
        threads: 28,
        iterations,
        critical_work: 1500,
        ..ModernConfig::default()
    }
}

/// Times `f` once inside a span; returns its output and seconds.
fn timed<T>(ctx: &mut Ctx, name: &str, layer: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let group = ctx.spans.current_group();
    let t = Instant::now();
    let out = ctx.spans.span(name, layer, group, |_| f());
    (out, t.elapsed().as_secs_f64())
}

/// Replays `ops` through `q`, returning a checksum of the popped events.
fn replay(q: &mut impl EventQueue, ops: &[SchedOp]) -> Option<u64> {
    let mut acc = 0u64;
    for op in ops {
        match *op {
            SchedOp::Push { t, cpu } => q.push(t, cpu),
            SchedOp::Pop => {
                let (t, cpu) = q.pop()?;
                acc = acc.wrapping_mul(31).wrapping_add(t ^ u64::from(cpu));
            }
        }
    }
    Some(acc)
}

/// `sched`: one Fig. 5 cell's scheduler-operation log, recorded with
/// `run_modern_recorded` and replayed through the time wheel; the binary
/// heap's replay is the reference checksum.
pub fn sched_replay(ctx: &mut Ctx) {
    let ((_, ops), _) = timed(ctx, "record:HBO/cw1500", "workloads", || {
        run_modern_recorded(&probe_cell(LockKind::Hbo, 10))
    });
    let expect = replay(&mut BinHeapQueue::new(), &ops);
    ctx.check(expect.is_some() && !ops.is_empty(), || {
        "sched log does not replay".to_owned()
    });
    let mut times = Vec::new();
    for _ in 0..PROBE_REPS {
        let (sum, secs) = timed(ctx, "replay:TimeWheel", "nucasim.sched", || {
            replay(&mut TimeWheel::new(), black_box(&ops))
        });
        ctx.check(sum == expect, || {
            "time wheel and heap replays disagree".to_owned()
        });
        times.push(secs);
    }
    ctx.set("sched.replay_ops", ops.len() as f64);
    ctx.set(
        "sched.replay_ns_per_op",
        median(&times) * 1e9 / ops.len().max(1) as f64,
    );
}

/// Runs each of `variants` [`PROBE_REPS`] times, interleaved, and returns
/// each one's median seconds and its last report.
fn interleaved<V: Copy>(
    ctx: &mut Ctx,
    variants: &[(V, String)],
    mut run: impl FnMut(V) -> SimReport,
) -> Vec<(f64, SimReport)> {
    let mut times = vec![Vec::new(); variants.len()];
    let mut last = vec![None; variants.len()];
    for _ in 0..PROBE_REPS {
        for (i, (v, name)) in variants.iter().enumerate() {
            let (report, secs) = timed(ctx, name, "workloads", || run(*v));
            times[i].push(secs);
            last[i] = Some(report);
        }
    }
    times
        .iter()
        .zip(last)
        .map(|(t, r)| (median(t), r.expect("PROBE_REPS is positive")))
        .collect()
}

/// Observers: the same cell plain, profiled and traced. The observers
/// must leave the simulation unchanged; their cost is the host-time
/// difference per simulated event.
pub fn observers(ctx: &mut Ctx) {
    #[derive(Clone, Copy)]
    enum Obs {
        Plain,
        Profiled,
        Traced,
    }
    let cfg = probe_cell(LockKind::HboGtSd, 20);
    let variants = [
        (Obs::Plain, "cell:run_modern".to_owned()),
        (Obs::Profiled, "cell:run_modern_profiled".to_owned()),
        (Obs::Traced, "cell:run_modern_traced".to_owned()),
    ];
    let res = interleaved(ctx, &variants, |o| match o {
        Obs::Plain => run_modern_raw(&cfg).0,
        Obs::Profiled => run_modern_profiled(&cfg).0,
        Obs::Traced => run_modern_traced(&cfg).0,
    });
    let plain = &res[0];
    let events = plain.1.events;
    for (name, (secs, report)) in ["profile", "trace"].iter().zip(&res[1..]) {
        ctx.check(
            (report.events, report.end_time) == (events, plain.1.end_time),
            || format!("{name} observer changed the simulation"),
        );
        ctx.set(
            format!("{name}.host_ns_per_event"),
            (secs - plain.0) * 1e9 / events.max(1) as f64,
        );
    }
}

/// `coherence`: the same collocated cell under flat, MESI and Dragon.
/// Each protocol's cost over flat is its host time per simulated event
/// minus flat's (the protocols simulate different event counts); the
/// counts come from one profiled run per protocol.
pub fn protocols(ctx: &mut Ctx) {
    let cell = |p: ProtocolKind| ModernConfig {
        machine: MachineConfig::wildfire(2, 14).with_protocol(p),
        collocate: true,
        ..probe_cell(LockKind::HboGtSd, 20)
    };
    let variants: Vec<(ProtocolKind, String)> = ProtocolKind::ALL
        .iter()
        .map(|&p| (p, format!("cell:HBO_GT_SD/{}", p.name())))
        .collect();
    let res = interleaved(ctx, &variants, |p| run_modern_raw(&cell(p)).0);
    let ns_per_event = |(secs, report): &(f64, SimReport)| secs * 1e9 / report.events.max(1) as f64;
    let flat = ns_per_event(&res[0]);
    for ((p, _), r) in variants.iter().zip(&res).skip(1) {
        ctx.set(
            format!("coherence.{}.host_ns_per_event_over_flat", p.name()),
            ns_per_event(r) - flat,
        );
    }
    let mut counts = nucasim::Profile::default();
    for p in [ProtocolKind::Mesi, ProtocolKind::Dragon] {
        let ((_, profile), _) = timed(
            ctx,
            &format!("profiled:HBO_GT_SD/{}", p.name()),
            "workloads",
            || run_modern_profiled(&cell(p)),
        );
        counts.merge(&profile);
    }
    ctx.set("coherence.upgrades", counts.upgrades as f64);
    ctx.set("coherence.evictions", counts.evictions as f64);
    ctx.set(
        "coherence.update_broadcasts",
        counts.update_broadcasts as f64,
    );
}

/// One CPU looping uncontended acquire/release through a
/// [`SessionDriver`], with no work between them.
struct SessionLoop {
    driver: SessionDriver,
    left: u32,
    started: bool,
}

impl Program for SessionLoop {
    fn resume(&mut self, ctx: &mut CpuCtx<'_>, last: Option<u64>) -> Command {
        let mut r = if self.started {
            self.driver.on_result(ctx, last)
        } else {
            self.started = true;
            DriveResult::ReleaseDone
        };
        loop {
            match r {
                DriveResult::Busy(cmd) => return cmd,
                DriveResult::AcquireDone => r = self.driver.start_release(ctx),
                DriveResult::ReleaseDone if self.left == 0 => return Command::Done,
                DriveResult::ReleaseDone => {
                    self.left -= 1;
                    r = self.driver.start_acquire(ctx);
                }
            }
        }
    }
}

/// Iterations of the session-step loop per kind.
const SESSION_ITERS: u32 = 20_000;

/// `simlocks`: per kind, host time per simulated uncontended
/// acquire+release on one CPU, which isolates the session state machines'
/// step cost. The machine has two one-CPU nodes because RH needs exactly
/// two nodes; only CPU 0 runs.
pub fn session_steps(ctx: &mut Ctx) {
    for &kind in LockCatalog::kinds() {
        let mut times = Vec::new();
        for _ in 0..3 {
            let mut m = Machine::new(MachineConfig::wildfire(2, 1));
            let topo = Arc::clone(m.topology());
            let gt = GtSlots::alloc(m.mem_mut(), &topo);
            let lock = build_lock(
                kind,
                m.mem_mut(),
                &topo,
                &gt,
                NodeId(0),
                &SimLockParams::default(),
            );
            m.add_program(
                CpuId(0),
                Box::new(SessionLoop {
                    driver: SessionDriver::new(lock.session(CpuId(0), NodeId(0))),
                    left: SESSION_ITERS,
                    started: false,
                }),
            );
            let (status, secs) = timed(ctx, &format!("session:{kind}"), "simlocks", || {
                m.run(u64::MAX)
            });
            let report = m.into_report();
            let acquires = report.lock_traces.first().map_or(0, |t| t.acquisitions);
            ctx.check(
                status.finished_all && acquires == u64::from(SESSION_ITERS),
                || format!("{kind} session loop: {acquires} of {SESSION_ITERS} acquires"),
            );
            times.push(secs);
        }
        ctx.set(
            format!("simlocks.{kind}.host_ns_per_sim_acquire"),
            median(&times) * 1e9 / f64::from(SESSION_ITERS),
        );
    }
}

/// Keys drawn per Zipf sampling measurement.
const ZIPF_KEYS: u64 = 1_000_000;

/// `zipf`: host time per `Zipfian::sample` over the lockserver's key
/// space.
pub fn zipf_sampling(ctx: &mut Ctx, zipf: &Zipfian) {
    let mut times = Vec::new();
    for rep in 0..PROBE_REPS {
        let mut rng = SplitMix64::new(ctx.seed ^ rep as u64);
        // `black_box` hides the distribution's constants, as in the
        // lockserver, where it arrives behind an `Arc`.
        let z = black_box(zipf);
        let (max, secs) = timed(ctx, "zipf:sample", "workloads", || {
            (0..ZIPF_KEYS)
                .map(|_| black_box(z.sample(&mut rng)))
                .max()
                .unwrap_or(0)
        });
        ctx.check(max < zipf.n(), || {
            format!("zipf drew key {max} of {}", zipf.n())
        });
        times.push(secs);
    }
    ctx.set(
        "lockserver.zipf_ns_per_key",
        median(&times) * 1e9 / ZIPF_KEYS as f64,
    );
}

/// `stats`: the per-lock statistics footprint of `shards` hot locks plus
/// one cold-tier tally per Zipf-drawn object key, recorded the way the
/// lockserver records them (shard locks dense, objects at `shards + key`).
pub fn lock_bytes(ctx: &mut Ctx, zipf: &Zipfian, shards: usize, requests: u64) {
    let mut stats = SimStats::with_hot_limit(shards);
    let mut rng = SplitMix64::new(ctx.seed);
    let ((), _) = timed(ctx, "stats:record", "nucasim.stats", || {
        let mut cpu = CpuCtx::new(CpuId(0), NodeId(0), 0, &mut stats);
        for key in (0..requests).map(|_| zipf.sample(&mut rng)) {
            let key = usize::try_from(key).expect("keys index a 10^6-object space");
            cpu.record_acquire(key % shards);
            cpu.tally_acquire(shards + key);
        }
    });
    ctx.check(stats.total_acquisitions() == 2 * requests, || {
        "stats lost acquisitions".to_owned()
    });
    ctx.set("stats.lock_bytes", stats.approx_lock_bytes() as f64);
}
