//! `locks_real`: the `hbo-locks` library on real threads, the code users
//! adopt and the only workload without the simulator. One uncontended
//! thread times batches of acquire+release pairs per kind; a 2-thread
//! contended run per kind checks for lost updates.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use hbo_locks::{AnyLock, LockCatalog, LockKind, NucaLock};
use nuca_topology::{register_thread, NodeId, Topology};
use nucasim::SplitMix64;

use crate::calc::{geomean, median, tail, Digest};
use crate::{probes, Ctx, Timer};

/// Acquire+release pairs per timed batch.
const PAIRS: u64 = 20_000;
/// Batches per kind in one rep; kinds take turns batch by batch, so slow
/// phases of the host spread over every kind alike.
const ROUNDS: usize = 5;
/// Batch means kept per kind (the first ones of the run). The buffers are
/// written through up front, so peak RSS does not grow with the number of
/// reps a run manages.
const KEPT_BATCHES: usize = 4_000;
/// Untimed pairs per kind during set-up.
const WARM_PAIRS: u64 = 100_000;
/// Increments per thread in the contended run.
const CONTENDED_ITERS: u64 = 2_000;
/// Timed contended runs per kind in the traced run.
const CONTENDED_REPS: usize = 5;

/// `pairs` uncontended acquire+release pairs, each incrementing a counter
/// inside the critical section; returns the counter.
fn pairs(lock: &AnyLock, pairs: u64) -> u64 {
    let mut counter = 0u64;
    for _ in 0..pairs {
        let token = lock.acquire(NodeId(0));
        counter = black_box(counter + 1);
        lock.release(token);
    }
    counter
}

/// Two threads, one per node, each making `iters` lock-protected
/// increments of a shared counter; returns the seconds taken and the
/// final count (short of `2 × iters` if an update was lost).
fn contended(kind: LockKind, iters: u64) -> (f64, u64) {
    let topo = Topology::symmetric(2, 1);
    let lock = kind.instantiate(topo.num_nodes());
    let counter = AtomicU64::new(0);
    let t = Instant::now();
    std::thread::scope(|s| {
        for cpu in topo.round_robin_binding(2) {
            let node = topo.node_of(cpu);
            let (lock, counter) = (&lock, &counter);
            s.spawn(move || {
                let _reg = register_thread(node);
                for _ in 0..iters {
                    let token = lock.acquire(node);
                    // A deliberately non-atomic read-modify-write: only the
                    // lock keeps the two threads' updates from colliding.
                    let v = counter.load(Ordering::Relaxed);
                    counter.store(v + 1, Ordering::Relaxed);
                    lock.release(token);
                }
            });
        }
    });
    (t.elapsed().as_secs_f64(), counter.load(Ordering::Relaxed))
}

/// The catalog's kinds in a seed-chosen order, each with a lock.
fn shuffled_locks(seed: u64) -> Vec<(LockKind, AnyLock)> {
    let mut kinds = LockCatalog::kinds().to_vec();
    let mut rng = SplitMix64::new(seed);
    for i in (1..kinds.len()).rev() {
        let j = usize::try_from(rng.next_below(i as u64 + 1)).expect("index fits usize");
        kinds.swap(i, j);
    }
    kinds.into_iter().map(|k| (k, k.instantiate(2))).collect()
}

/// One rep, timed as one unit: [`ROUNDS`] rounds of one batch per kind.
/// Keeps each batch's mean ns per pair in `samples` (indexed like
/// `locks`) and returns the per-kind counter totals.
fn rep(
    locks: &[(LockKind, AnyLock)],
    samples: &mut [Vec<f64>],
    timer: &mut Timer<'_>,
) -> (Vec<u64>, Digest) {
    let group = timer.spans.current_group();
    let mut counts = vec![0u64; locks.len()];
    timer.unit("rounds", "bench", group, |spans| {
        for _ in 0..ROUNDS {
            for (i, (kind, lock)) in locks.iter().enumerate() {
                let t = Instant::now();
                let n = spans.span(format!("batch:{kind}"), "locks", group, |_| {
                    pairs(lock, PAIRS)
                });
                if samples[i].len() < KEPT_BATCHES {
                    samples[i].push(t.elapsed().as_nanos() as f64 / PAIRS as f64);
                }
                counts[i] += n;
            }
        }
    });
    let mut digest = Digest::default();
    for ((kind, _), n) in locks.iter().zip(&counts) {
        digest.bytes(kind.as_str().as_bytes());
        digest.u64(*n);
    }
    (counts, digest)
}

pub fn run(ctx: &mut Ctx) {
    let seed = ctx.seed;
    ctx.note("pairs_per_batch", PAIRS.to_string());
    // Set-up: one lock per kind, each warmed with untimed pairs.
    let locks = ctx.setup(|_| {
        let locks = shuffled_locks(seed);
        for (_, lock) in &locks {
            black_box(pairs(lock, WARM_PAIRS));
        }
        locks
    });
    let mut samples: Vec<Vec<f64>> = locks
        .iter()
        .map(|_| {
            let mut kept = vec![f64::NAN; KEPT_BATCHES];
            kept.clear();
            kept
        })
        .collect();
    let reps = ctx.measure("locks_real", |timer| rep(&locks, &mut samples, timer));
    let expected = ROUNDS as u64 * PAIRS;
    for ((kind, _), &n) in locks.iter().zip(reps.output()) {
        ctx.tally(expected, expected.saturating_sub(n), || {
            format!("{kind}: {n} of {expected} pairs")
        });
    }

    let (mut medians, mut tails) = (Vec::new(), Vec::new());
    for ((kind, _), s) in locks.iter().zip(&samples) {
        let m = median(s);
        ctx.set(format!("locks.{kind}.pair_ns"), m);
        medians.push(m);
        // The tail rule reaches p99 at 1000 batches per kind, which a
        // 25-second run passes; the record states what each kind used.
        match tail(s) {
            Some(t) => {
                ctx.note(
                    &format!("tail.{kind}"),
                    format!("{{\"pct\": {}, \"samples\": {}}}", t.pct, t.samples),
                );
                tails.push(t.value);
            }
            None => ctx.check(false, || format!("{kind}: too few batches for a tail")),
        }
    }
    if let Some(g) = ctx.ok(geomean(&medians)) {
        ctx.set("lock_pair_ns", g);
    }
    if let Some(g) = ctx.ok(geomean(&tails)) {
        ctx.set("lock_pair_ns_p99", g);
    }

    // Contended runs: every run checks for lost updates; the traced run
    // also times them (diagnostic only: their batch spread is too wide
    // for an end-to-end bound).
    let runs = if ctx.trace { CONTENDED_REPS } else { 1 };
    for (kind, _) in &locks {
        let mut times = Vec::new();
        for _ in 0..runs {
            let group = ctx.spans.group();
            ctx.spans.set_enabled(ctx.trace);
            let (secs, total) = ctx
                .spans
                .span(format!("contended:{kind}"), "locks", group, |_| {
                    contended(*kind, CONTENDED_ITERS)
                });
            ctx.spans.set_enabled(false);
            let want = 2 * CONTENDED_ITERS;
            ctx.tally(want, want.saturating_sub(total), || {
                format!("{kind}: lost {} updates", want - total)
            });
            times.push(secs);
        }
        if ctx.trace {
            ctx.set(
                format!("locks.{kind}.contended_ns_per_op"),
                median(&times) * 1e9 / (2 * CONTENDED_ITERS) as f64,
            );
        }
    }

    ctx.probe("session_steps", probes::session_steps);
}
