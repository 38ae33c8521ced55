//! `lockserver_1m`: the sharded lock service over 10^6 Zipf(0.99)
//! objects, open-loop bursty arrivals and a 50% write mix. Half of the
//! cells run undisturbed, half under the full fault stack. It loads the
//! `stats` tiers, `zipf`, `faults`/`preempt` and the memory footprint,
//! which the other workloads barely touch.

use nuca_experiments::robustness::levels;
use nuca_experiments::Scale;
use nuca_workloads::lockserver::{run_lockserver, LockServerConfig};
use nuca_workloads::zipf::Zipfian;
use nucasim::{MachineConfig, SplitMix64};

use crate::calc::{geomean, Digest};
use crate::coherence::{set_sim_layers, SimCounts, KINDS};
use crate::{probes, Ctx, Timer};

const OBJECTS: usize = 1_000_000;
const ZIPF_THETA: f64 = 0.99;
const THREADS: usize = 28;
/// Few shards, so the shard locks are contended.
const SHARDS: usize = 4;
/// Requests each thread serves (the artifact's full scale).
const REQUESTS: u32 = 120;

struct Cell {
    label: String,
    cfg: LockServerConfig,
}

/// The cells: each kind undisturbed and under the full fault stack, with
/// the artifact's full-scale service parameters, seeded from the
/// workload seed.
fn cells(seed: u64) -> Vec<Cell> {
    let lv = levels(Scale::Full);
    let levels = [lv[0], *lv.last().expect("robustness has levels")];
    let mut seeds = SplitMix64::new(seed);
    let mut out = Vec::new();
    for kind in KINDS {
        for d in levels {
            let mut machine = MachineConfig::wildfire(2, THREADS / 2).with_seed(seeds.next_u64());
            if let Some(p) = d.preemption {
                machine = machine.with_preemption(p);
            }
            if d.faults.is_active() {
                machine = machine.with_faults(d.faults);
            }
            out.push(Cell {
                label: format!("cell:{kind}/{}", d.name),
                cfg: LockServerConfig {
                    kind,
                    machine,
                    threads: THREADS,
                    shards: SHARDS,
                    objects: OBJECTS,
                    zipf_theta: ZIPF_THETA,
                    write_pct: 50,
                    requests: REQUESTS,
                    mean_gap: 6_000,
                    burst: 4,
                    slo: 400_000,
                    cycle_limit: 12_500_000_000,
                    ..LockServerConfig::default()
                },
            });
        }
    }
    out
}

/// What a rep keeps of one cell's report (not the report itself, whose
/// final memory image of 10^6 objects would inflate `peak_rss_mib`).
#[derive(Debug, Clone, Copy)]
struct Served {
    finished: bool,
    served: u64,
    p50_ns: u64,
    p99_ns: u64,
    p999_ns: u64,
    goodput_pct: f64,
    objects_touched: u64,
    sim: SimCounts,
}

fn rep(cells: &[Cell], timer: &mut Timer<'_>) -> (Vec<Served>, Digest) {
    let group = timer.spans.current_group();
    let mut digest = Digest::default();
    let out = cells
        .iter()
        .map(|c| {
            let r = timer.unit(c.label.as_str(), "workloads", group, |_| {
                run_lockserver(&c.cfg)
            });
            let s = Served {
                finished: r.finished,
                served: r.served,
                p50_ns: r.p50_ns,
                p99_ns: r.p99_ns,
                p999_ns: r.p999_ns,
                goodput_pct: r.goodput_pct,
                objects_touched: r.objects_touched as u64,
                sim: SimCounts::of(&r.sim),
            };
            for v in [
                r.served,
                r.writes,
                s.p50_ns,
                s.p99_ns,
                s.p999_ns,
                s.objects_touched,
            ] {
                digest.u64(v);
            }
            digest.u64(s.goodput_pct.to_bits());
            s.sim.digest(&mut digest);
            s
        })
        .collect();
    (out, digest)
}

pub fn run(ctx: &mut Ctx) {
    let seed = ctx.seed;
    ctx.note("objects", OBJECTS.to_string());
    // Set-up: the key distribution over 10^6 objects (its zeta constants
    // take a pass over every object), the cells, and one small warm-up
    // service run over the full object space.
    let (zipf, cells) = ctx.setup(|_| {
        let zipf = Zipfian::new(OBJECTS as u64, ZIPF_THETA);
        run_lockserver(&LockServerConfig {
            machine: MachineConfig::wildfire(2, 2),
            threads: 4,
            objects: OBJECTS,
            requests: 10,
            ..LockServerConfig::default()
        });
        (zipf, cells(seed))
    });
    let reps = ctx.measure("lockserver_1m", |timer| rep(&cells, timer));
    let results = reps.output();
    let (mut p50, mut p99) = (Vec::new(), Vec::new());
    let (mut served, mut within, mut touched) = (0u64, 0.0f64, 0u64);
    for (r, cell) in results.iter().zip(&cells) {
        let expected = cell.cfg.threads as u64 * u64::from(cell.cfg.requests);
        ctx.tally(expected, expected.saturating_sub(r.served), || {
            format!("{}: served {} of {expected} requests", cell.label, r.served)
        });
        ctx.check(r.finished, || format!("{}: did not finish", cell.label));
        ctx.check(
            r.p50_ns <= r.p99_ns
                && r.p99_ns <= r.p999_ns
                && (0.0..=100.0).contains(&r.goodput_pct)
                && r.objects_touched <= r.served,
            || format!("{}: inconsistent service stats", cell.label),
        );
        p50.push(r.p50_ns as f64 / 1e3);
        p99.push(r.p99_ns as f64 / 1e3);
        served += r.served;
        within += r.goodput_pct / 100.0 * r.served as f64;
        touched += r.objects_touched;
    }
    for (name, v) in [("req_p50_us", &p50), ("req_p99_us", &p99)] {
        if let Some(g) = ctx.ok(geomean(v)) {
            ctx.set(name, g);
        }
    }
    ctx.set("goodput_pct", 100.0 * within / served.max(1) as f64);
    ctx.set("lockserver.served", served as f64);
    ctx.set("lockserver.objects_touched", touched as f64);
    set_sim_layers(ctx, results.iter().map(|r| &r.sim), reps.run_s());

    let requests = THREADS as u64 * u64::from(REQUESTS);
    ctx.probe("zipf", |ctx| probes::zipf_sampling(ctx, &zipf));
    ctx.probe("lock_bytes", |ctx| {
        probes::lock_bytes(ctx, &zipf, SHARDS, requests)
    });
}
