//! `coherence`: Fig. 5-shaped 28-CPU cells with the lock collocated with
//! its data, under the set-associative MESI and Dragon protocols. Same
//! engine and locks as `paper_suite`, but the `coherence` layer does most
//! of the work and the experiments runner none.

use hbo_locks::LockKind;
use nuca_workloads::modern::{run_modern_raw, ModernConfig};
use nuca_workloads::MicroReport;
use nucasim::{MachineConfig, ProtocolKind, SimReport, SplitMix64};

use crate::calc::{geomean, Digest};
use crate::{probes, Ctx, Timer};

/// Kinds under test: a backoff lock, the paper's best NUCA-aware lock, a
/// queue lock and a modern NUCA-aware queue lock.
pub const KINDS: [LockKind; 4] = [
    LockKind::TatasExp,
    LockKind::HboGtSd,
    LockKind::Mcs,
    LockKind::Cna,
];

const PROTOCOLS: [ProtocolKind; 2] = [ProtocolKind::Mesi, ProtocolKind::Dragon];

/// Light and Table 2-level contention.
const CRITICAL_WORK: [u32; 2] = [300, 1500];

/// Acquire-release iterations per thread (Fig. 5's full scale).
const ITERATIONS: u32 = 60;

const THREADS: usize = 28;

/// One cell's configuration, with its label.
struct Cell {
    label: String,
    cfg: ModernConfig,
}

/// The cells, each seeded from the workload seed.
fn cells(seed: u64) -> Vec<Cell> {
    let mut seeds = SplitMix64::new(seed);
    let mut out = Vec::new();
    for kind in KINDS {
        for proto in PROTOCOLS {
            for cw in CRITICAL_WORK {
                out.push(Cell {
                    label: format!("cell:{kind}/{}/cw{cw}", proto.name()),
                    cfg: ModernConfig {
                        kind,
                        machine: MachineConfig::wildfire(2, THREADS / 2)
                            .with_protocol(proto)
                            .with_seed(seeds.next_u64()),
                        threads: THREADS,
                        iterations: ITERATIONS,
                        critical_work: cw,
                        collocate: true,
                        ..ModernConfig::default()
                    },
                });
            }
        }
    }
    out
}

/// A cell's deterministic simulation counts. Reps keep these rather than
/// whole reports, so the benchmark's own memory stays out of
/// `peak_rss_mib`.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimCounts {
    events: u64,
    end_time: u64,
    finished: bool,
    local: u64,
    global: u64,
    hits: u64,
    acquires: u64,
    handoffs: u64,
}

impl SimCounts {
    pub fn of(sim: &SimReport) -> SimCounts {
        SimCounts {
            events: sim.events,
            end_time: sim.end_time,
            finished: sim.finished_all,
            local: sim.traffic.local,
            global: sim.traffic.global,
            hits: sim.cache_hits,
            acquires: sim.lock_traces.iter().map(|t| t.acquisitions).sum(),
            handoffs: sim.lock_traces.iter().map(|t| t.node_handoffs).sum(),
        }
    }

    /// Folds the counts into `d`.
    pub fn digest(&self, d: &mut Digest) {
        for v in [
            self.events,
            self.end_time,
            u64::from(self.finished),
            self.local,
            self.global,
            self.hits,
            self.acquires,
            self.handoffs,
        ] {
            d.u64(v);
        }
    }
}

/// Sets the engine and memory layer metrics from one rep's cells.
pub fn set_sim_layers<'a>(
    ctx: &mut Ctx,
    cells: impl IntoIterator<Item = &'a SimCounts>,
    run_s: f64,
) {
    let mut total = SimCounts::default();
    for c in cells {
        total.events += c.events;
        total.end_time += c.end_time;
        total.local += c.local;
        total.global += c.global;
        total.hits += c.hits;
    }
    let SimCounts {
        events,
        end_time,
        local,
        global,
        hits,
        ..
    } = total;
    ctx.set("engine.events", events as f64);
    ctx.set("engine.events_per_s", events as f64 / run_s);
    ctx.set("engine.sim_cycles", end_time as f64);
    ctx.set("mem.tx_local", local as f64);
    ctx.set("mem.tx_global", global as f64);
    ctx.set("mem.cache_hits", hits as f64);
    ctx.set(
        "mem.hit_ratio",
        hits as f64 / (hits + local + global).max(1) as f64,
    );
}

fn rep(cells: &[Cell], timer: &mut Timer<'_>) -> (Vec<(MicroReport, SimCounts)>, Digest) {
    let group = timer.spans.current_group();
    let mut digest = Digest::default();
    let out = cells
        .iter()
        .map(|c| {
            let (sim, _) = timer.unit(c.label.as_str(), "workloads", group, |_| {
                run_modern_raw(&c.cfg)
            });
            let counts = SimCounts::of(&sim);
            counts.digest(&mut digest);
            (
                MicroReport::from_sim(c.cfg.kind, c.cfg.threads, &sim, 0),
                counts,
            )
        })
        .collect();
    (out, digest)
}

pub fn run(ctx: &mut Ctx) {
    let seed = ctx.seed;
    // Set-up: the cell list, and one warm-up cell per protocol (the first
    // cell's configuration) so the set-associative caches' first
    // allocations are not timed.
    let cells = ctx.setup(|_| {
        let cells = cells(seed);
        for proto in PROTOCOLS {
            let first = &cells[0].cfg;
            run_modern_raw(&ModernConfig {
                machine: first.machine.clone().with_protocol(proto),
                ..first.clone()
            });
        }
        cells
    });
    let reps = ctx.measure("coherence", |timer| rep(&cells, timer));
    let results = reps.output();
    let mut ns = Vec::new();
    let mut ratios = Vec::new();
    let (mut acquires, mut global) = (0u64, 0u64);
    for ((micro, sim), cell) in results.iter().zip(&cells) {
        let expected = cell.cfg.threads as u64 * u64::from(cell.cfg.iterations);
        ctx.check(micro.finished && micro.total_acquires == expected, || {
            format!(
                "{}: finished={} acquires {} of {expected}",
                cell.label, micro.finished, micro.total_acquires
            )
        });
        ns.push(micro.ns_per_iteration);
        ratios.push(micro.handoff_ratio.unwrap_or(f64::NAN));
        acquires += micro.total_acquires;
        global += sim.global;
    }
    if let Some(g) = ctx.ok(geomean(&ns)) {
        ctx.set("sim_ns_per_acquire", g);
    }
    ctx.set(
        "remote_handoff_ratio",
        ratios.iter().sum::<f64>() / ratios.len() as f64,
    );
    ctx.set(
        "global_tx_per_acquire",
        global as f64 / acquires.max(1) as f64,
    );
    set_sim_layers(ctx, results.iter().map(|(_, s)| s), reps.run_s());
    ctx.note("cells", results.len().to_string());

    ctx.probe("protocols", probes::protocols);
}
