//! `paper_suite`: the researcher's real job. Runs the `fig5`, `table2`,
//! `lat_hist` and `handoff` artifacts at full scale through
//! `run_experiment`, one simulation job at a time.

use std::time::Instant;

use hbo_locks::LockCatalog;
use nuca_experiments::{run_experiment, runner, Report, Scale};

use crate::calc::{geomean_cells, Digest};
use crate::{probes, Ctx, Spans, Timer, ARTIFACTS};

/// Simulation jobs in flight (`--jobs`). One job keeps the second CPU
/// free for the host's own noise, which halves the run-to-run spread.
const JOBS: usize = 1;

/// Critical-work level above which the artifacts leave TATAS unmeasured.
const TATAS_MAX_CW: u32 = 1300;

/// One artifact's run within a rep.
#[derive(Debug)]
struct ArtifactRun {
    id: &'static str,
    secs: f64,
    events: u64,
    reports: Vec<Report>,
}

fn run_artifacts(scale: Scale, timer: &mut Timer<'_>) -> (Vec<ArtifactRun>, Digest) {
    let group = timer.spans.current_group();
    let mut digest = Digest::default();
    let runs: Vec<ArtifactRun> = ARTIFACTS
        .iter()
        .map(|&id| {
            let events = nucasim::sim_events_total();
            let t = Instant::now();
            let reports = timer.unit(format!("artifact:{id}"), "experiments", group, |_| {
                run_experiment(id, scale).expect("ARTIFACTS holds known ids")
            });
            ArtifactRun {
                id,
                secs: t.elapsed().as_secs_f64(),
                events: nucasim::sim_events_total() - events,
                reports,
            }
        })
        .collect();
    for report in runs.iter().flat_map(|r| &r.reports) {
        digest.bytes(report.id().as_bytes());
        digest.bytes(report.to_tsv().as_bytes());
    }
    (runs, digest)
}

/// The reports of one rep, by report id.
fn report<'a>(runs: &'a [ArtifactRun], id: &str) -> Option<&'a Report> {
    runs.iter().flat_map(|r| &r.reports).find(|r| r.id() == id)
}

/// A report's rows as cell vectors (header excluded) and its header.
fn table(report: &Report) -> (Vec<String>, Vec<Vec<String>>) {
    let tsv = report.to_tsv();
    let mut lines = tsv
        .lines()
        .map(|l| l.split('\t').map(str::to_owned).collect::<Vec<_>>());
    let header = lines.next().unwrap_or_default();
    (header, lines.collect())
}

/// Whether a `Lock Type × cw=N` grid cell must be the `-` placeholder.
fn dashed(kind: &str, column: &str) -> bool {
    let cw: u32 = column.trim_start_matches("cw=").parse().unwrap_or(0);
    kind == "TATAS" && cw > TATAS_MAX_CW
}

/// Checks a kind × critical-work grid: one row per registered kind, `-`
/// exactly where TATAS is unmeasured, and `valid` everywhere else.
/// Returns the measured cells.
fn check_grid(ctx: &mut Ctx, report: &Report, valid: impl Fn(&str) -> bool) -> Vec<String> {
    let (header, rows) = table(report);
    let id = report.id().to_owned();
    ctx.check(rows.len() == LockCatalog::kinds().len(), || {
        format!(
            "{id}: {} rows, expected one per registered kind",
            rows.len()
        )
    });
    let mut measured = Vec::new();
    for row in &rows {
        for (col, cell) in header.iter().zip(row).skip(1) {
            let ok = if dashed(&row[0], col) {
                cell == "-"
            } else {
                valid(cell)
            };
            ctx.check(ok, || format!("{id}: {} {col} = `{cell}`", row[0]));
            if cell != "-" {
                measured.push(cell.clone());
            }
        }
    }
    measured
}

fn positive(cell: &str) -> bool {
    cell.parse::<f64>().is_ok_and(|v| v > 0.0 && v.is_finite())
}

fn ratio(cell: &str) -> bool {
    cell.parse::<f64>().is_ok_and(|v| (0.0..=1.0).contains(&v))
}

/// `p50/p99/max`, ordered.
fn latency_triple(cell: &str) -> bool {
    let parts: Vec<u64> = cell.split('/').filter_map(|p| p.parse().ok()).collect();
    parts.len() == 3 && parts[0] <= parts[1] && parts[1] <= parts[2]
}

/// Checks every report of a rep; returns (fig5 time cells, fig5 handoff
/// cells).
fn check_reports(ctx: &mut Ctx, runs: &[ArtifactRun], scale: Scale) -> (Vec<String>, Vec<String>) {
    let missing = |ctx: &mut Ctx, id: &str| {
        let r = report(runs, id);
        ctx.check(r.is_some(), || format!("no `{id}` report"));
        r
    };
    let time = missing(ctx, "fig5_time").map(|r| check_grid(ctx, r, positive));
    let handoff = missing(ctx, "fig5_handoff").map(|r| check_grid(ctx, r, ratio));
    if let Some(r) = missing(ctx, "lat_hist") {
        check_grid(ctx, r, latency_triple);
    }
    if let Some(r) = missing(ctx, "table2") {
        let (_, rows) = table(r);
        ctx.check(rows.len() == LockCatalog::paper().len(), || {
            format!("table2 has {} rows", rows.len())
        });
        for row in &rows {
            let ok = if row[0] == "TATAS_EXP" {
                row[1..] == ["1.00", "1.00"]
            } else {
                row[1..].iter().all(|c| positive(c))
            };
            ctx.check(ok, || format!("table2 row {row:?}"));
        }
    }
    if let Some(r) = missing(ctx, "handoff") {
        // Columns: Lock Type, CPUs, Acquires, ...; every thread finishes
        // all its iterations.
        let iterations = scale.pick(60, 20);
        let (_, rows) = table(r);
        ctx.check(!rows.is_empty(), || "handoff has no rows".to_owned());
        for row in &rows {
            let cpus: u64 = row[1].parse().unwrap_or(0);
            let acquires: u64 = row[2].parse().unwrap_or(0);
            ctx.check(cpus > 0 && acquires == cpus * iterations, || {
                format!("handoff {} @ {} CPUs: {acquires} acquires", row[0], row[1])
            });
        }
    }
    (time.unwrap_or_default(), handoff.unwrap_or_default())
}

pub fn run(ctx: &mut Ctx) {
    runner::set_max_jobs(JOBS);
    ctx.note("jobs", JOBS.to_string());
    ctx.note("scale", "\"full\"");
    ctx.note("seed_use", "\"unused: the artifacts fix their own seeds\"");

    // Set-up: the whole suite at fast scale, which fills the allocator and
    // caches and checks the artifacts render before anything is timed.
    ctx.setup(|ctx| {
        let (runs, _) = run_artifacts(Scale::Fast, &mut Timer::untimed(&mut Spans::new(false)));
        check_reports(ctx, &runs, Scale::Fast);
    });

    let reps = ctx.measure("paper_suite", |timer| run_artifacts(Scale::Full, timer));
    let runs = reps.output();
    let (time, handoff) = check_reports(ctx, runs, Scale::Full);
    let run_s = reps.run_s();
    let events: u64 = runs.iter().map(|r| r.events).sum();
    ctx.set("engine.events", events as f64);
    ctx.set("engine.events_per_s", events as f64 / run_s);
    for r in runs {
        ctx.set(format!("artifact.{}.s", r.id), r.secs);
        ctx.set(format!("artifact.{}.events", r.id), r.events as f64);
    }
    if let Some(g) = ctx.ok(geomean_cells(time.iter().map(String::as_str))) {
        ctx.set("sim_ns_per_acquire", g);
    }
    let ratios: Vec<f64> = handoff.iter().filter_map(|c| c.parse().ok()).collect();
    ctx.check(!ratios.is_empty(), || "no fig5 handoff ratios".to_owned());
    ctx.set(
        "remote_handoff_ratio",
        ratios.iter().sum::<f64>() / ratios.len().max(1) as f64,
    );

    ctx.probe("sched_replay", probes::sched_replay);
    ctx.probe("observers", probes::observers);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_tatas_above_cw_1300_is_dashed() {
        assert!(dashed("TATAS", "cw=1500"));
        assert!(!dashed("TATAS", "cw=1200"));
        assert!(!dashed("TATAS_EXP", "cw=2100"));
        assert!(!dashed("MCS", "cw=2100"));
    }

    #[test]
    fn cell_validators() {
        assert!(positive("2010") && !positive("0") && !positive("n/a"));
        assert!(ratio("0.31") && !ratio("1.5") && !ratio("-"));
        assert!(latency_triple("8/52/220") && !latency_triple("52/8/220"));
        assert!(!latency_triple("n/a"));
    }
}
