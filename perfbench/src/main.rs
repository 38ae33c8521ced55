//! The repository benchmark: simulator speed, simulated lock behaviour and
//! real-lock latency over four workloads.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_suite --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Each run executes one workload for a time budget, checks every output,
//! and prints as its last line one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. With `--trace 0` the metrics are
//! the end-to-end ones; with `--trace 1` the run records spans around
//! each call into a layer and reports the per-layer metrics instead. The
//! line before it is the run record (host, build, settings, output
//! digest); both, and the spans, are also written under
//! `$CARGO_TARGET_DIR/perfbench-out/`. `NOTES.md` explains the choices.

mod calc;
mod calib;
mod coherence;
mod host;
mod locks_real;
mod lockserver;
mod paper_suite;
mod probes;
mod spans;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use hbo_locks::LockCatalog;

use calc::{median, Digest};
use calib::Calibrator;
use spans::Spans;

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 4] = ["paper_suite", "coherence", "lockserver_1m", "locks_real"];

/// End-to-end metrics and their units; every workload reports each.
const END_TO_END: [(&str, &str); 3] = [("run_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB")];

/// Times the set-up runs; `setup_s` is the median.
const SETUP_REPS: usize = 5;

/// Artifacts of the `paper_suite` workload.
const ARTIFACTS: [&str; 4] = ["fig5", "table2", "lat_hist", "handoff"];

/// Layers that spans are attributed to.
const LAYERS: [&str; 7] = [
    "bench",
    "experiments",
    "workloads",
    "simlocks",
    "nucasim.sched",
    "nucasim.stats",
    "locks",
];

/// Per-layer metrics and their units, in `BENCHMARK.json` order. Every
/// traced run reports each; a workload that does not exercise a metric's
/// layer reports 0 for it (`NOTES.md` lists which workload sets which).
fn per_layer() -> Vec<(String, &'static str)> {
    let fixed = [
        ("sim_ns_per_acquire", "ns"),
        ("remote_handoff_ratio", "ratio"),
        ("global_tx_per_acquire", "count"),
        ("req_p50_us", "us"),
        ("req_p99_us", "us"),
        ("goodput_pct", "%"),
        ("lock_pair_ns", "ns"),
        ("lock_pair_ns_p99", "ns"),
        ("failed_frac", "ratio"),
        ("trace.overhead_s", "s"),
        ("engine.events", "count"),
        ("engine.events_per_s", "1/s"),
        ("engine.sim_cycles", "cycles"),
        ("sched.replay_ops", "count"),
        ("sched.replay_ns_per_op", "ns"),
        ("mem.tx_local", "count"),
        ("mem.tx_global", "count"),
        ("mem.cache_hits", "count"),
        ("mem.hit_ratio", "ratio"),
        ("coherence.upgrades", "count"),
        ("coherence.evictions", "count"),
        ("coherence.update_broadcasts", "count"),
        ("coherence.mesi.host_ns_per_event_over_flat", "ns"),
        ("coherence.dragon.host_ns_per_event_over_flat", "ns"),
        ("profile.host_ns_per_event", "ns"),
        ("trace.host_ns_per_event", "ns"),
        ("stats.lock_bytes", "bytes"),
        ("lockserver.zipf_ns_per_key", "ns"),
        ("lockserver.objects_touched", "count"),
        ("lockserver.served", "count"),
    ];
    let mut out: Vec<(String, &'static str)> =
        fixed.iter().map(|&(n, u)| (n.to_owned(), u)).collect();
    for id in ARTIFACTS {
        out.push((format!("artifact.{id}.s"), "s"));
        out.push((format!("artifact.{id}.events"), "count"));
    }
    for (prefix, suffix) in [
        ("simlocks", "host_ns_per_sim_acquire"),
        ("locks", "pair_ns"),
        ("locks", "contended_ns_per_op"),
    ] {
        for kind in LockCatalog::kinds() {
            out.push((format!("{prefix}.{}.{suffix}", kind.as_str()), "ns"));
        }
    }
    for layer in LAYERS {
        out.push((format!("self_s.{layer}"), "s"));
    }
    out
}

/// State of one benchmark run: settings, recorded spans, metrics, checks.
#[derive(Debug)]
pub struct Ctx {
    /// Workload seed (`--seed`).
    pub seed: u64,
    /// Measuring budget (`--seconds`).
    pub budget: Duration,
    /// Whether this is the traced run (`--trace 1`).
    pub trace: bool,
    /// Spans of the traced reps and probes.
    pub spans: Spans,
    cal: Calibrator,
    metrics: BTreeMap<String, f64>,
    record: Vec<(String, String)>,
    digest: Option<Digest>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Ctx {
    fn new(seed: u64, budget: Duration, trace: bool) -> Ctx {
        Ctx {
            seed,
            budget,
            trace,
            spans: Spans::new(false),
            cal: Calibrator::new(),
            metrics: BTreeMap::new(),
            record: Vec::new(),
            digest: None,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
        }
    }

    /// Sets a metric. A non-finite value counts as a failed check.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        self.check(value.is_finite(), || format!("metric {name} is {value}"));
        self.metrics
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    /// One output check: counts an attempt, and a failure unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.tally(1, u64::from(!ok), what);
    }

    /// `attempted` units of work of which `failed` failed.
    pub fn tally(&mut self, attempted: u64, failed: u64, what: impl FnOnce() -> String) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 && self.problems.len() < 20 {
            self.problems.push(what());
        }
    }

    /// Records the result of a fallible step; an error is a failed check.
    pub fn ok<T>(&mut self, r: Result<T, String>) -> Option<T> {
        match r {
            Ok(v) => {
                self.tally(1, 0, String::new);
                Some(v)
            }
            Err(e) => {
                self.check(false, || e);
                None
            }
        }
    }

    /// Adds a field to the run record; `json` is a JSON value.
    pub fn note(&mut self, key: &str, json: impl Into<String>) {
        self.record.push((key.to_owned(), json.into()));
    }

    /// Runs `prepare` [`SETUP_REPS`] times, sets `setup_s` to the median
    /// (scaled to the reference host, see [`calib`]) and returns the last
    /// inputs.
    pub fn setup<T>(&mut self, mut prepare: impl FnMut(&mut Ctx) -> T) -> T {
        let (mut wall, mut scaled) = (Vec::new(), Vec::new());
        let mut inputs = None;
        for _ in 0..SETUP_REPS {
            let before = self.cal.sample();
            let t = Instant::now();
            inputs = Some(prepare(self));
            let secs = t.elapsed().as_secs_f64();
            let after = self.cal.sample();
            wall.push(secs);
            scaled.push(calib::scale(secs, before, after));
        }
        self.set("setup_s", median(&scaled));
        self.note("setup_wall_s", median(&wall).to_string());
        inputs.expect("SETUP_REPS is positive")
    }

    /// Runs `rep` until the budget is spent (at least once; in the traced
    /// run at least once plain and once traced, alternating). Each rep
    /// times its units of work through the [`Timer`] and returns its
    /// output and a digest of it; every rep must give the same digest.
    /// Sets `run_s` from the plain reps and `trace.overhead_s` from both.
    pub fn measure<T>(
        &mut self,
        name: &str,
        mut rep: impl FnMut(&mut Timer<'_>) -> (T, Digest),
    ) -> Reps<T> {
        let start = Instant::now();
        let mut reps = Reps {
            first: None,
            plain: Vec::new(),
            traced: Vec::new(),
            wall: Vec::new(),
        };
        let mut slowest = 0.0f64;
        for i in 0.. {
            let traced = self.trace && i % 2 == 1;
            self.spans.set_enabled(traced);
            let group = self.spans.group();
            let t = Instant::now();
            let mut timer = Timer {
                spans: &mut self.spans,
                cal: Some(&mut self.cal),
                wall: 0.0,
                scaled: 0.0,
            };
            let root = timer.spans.open(format!("workload:{name}"), "bench", group);
            let (out, digest) = rep(&mut timer);
            timer.spans.close(root);
            let (wall, scaled) = (timer.wall, timer.scaled);
            self.spans.set_enabled(false);
            slowest = slowest.max(t.elapsed().as_secs_f64());
            if traced {
                reps.traced.push(scaled);
            } else {
                reps.plain.push(scaled);
                reps.wall.push(wall);
            }
            match self.digest {
                None => self.digest = Some(digest),
                Some(d) => self.check(d == digest, || {
                    format!(
                        "rep {i} digest {} differs from rep 0's {}",
                        digest.hex(),
                        d.hex()
                    )
                }),
            }
            reps.first.get_or_insert(out);
            let both = !reps.plain.is_empty() && (!self.trace || !reps.traced.is_empty());
            if both && start.elapsed().as_secs_f64() + slowest > self.budget.as_secs_f64() {
                break;
            }
        }
        self.set("run_s", reps.run_s());
        if self.trace {
            self.set("trace.overhead_s", median(&reps.traced) - reps.run_s());
        }
        self.note("run_wall_s", median(&reps.wall).to_string());
        let list = |v: &[f64]| {
            format!(
                "[{}]",
                v.iter().map(f64::to_string).collect::<Vec<_>>().join(", ")
            )
        };
        self.note("rep_s", list(&reps.plain));
        self.note("rep_wall_s", list(&reps.wall));
        self.note("calibration_s", median(self.cal.samples()).to_string());
        self.note(
            "reps",
            format!(
                "{{\"plain\": {}, \"traced\": {}}}",
                reps.plain.len(),
                reps.traced.len()
            ),
        );
        reps
    }

    /// Runs `body` as a layer probe: in the traced run only, inside a
    /// root span of its own.
    pub fn probe(&mut self, name: &str, body: impl FnOnce(&mut Ctx)) {
        if !self.trace {
            return;
        }
        self.spans.set_enabled(true);
        let group = self.spans.group();
        let root = self.spans.open(format!("probe:{name}"), "bench", group);
        body(self);
        self.spans.close(root);
        self.spans.set_enabled(false);
    }
}

/// Times a rep's units of work. Each unit runs inside a span and between
/// two calibration samples (see [`calib`]); a rep's time is the sum of its
/// units' times, which leaves the calibration itself out.
#[derive(Debug)]
pub struct Timer<'a> {
    /// The run's span recorder.
    pub spans: &'a mut Spans,
    cal: Option<&'a mut Calibrator>,
    wall: f64,
    scaled: f64,
}

impl<'a> Timer<'a> {
    /// A timer that neither calibrates nor records, for set-up work.
    pub fn untimed(spans: &'a mut Spans) -> Timer<'a> {
        Timer {
            spans,
            cal: None,
            wall: 0.0,
            scaled: 0.0,
        }
    }

    /// Runs `body` as one timed unit inside a span named `name`.
    pub fn unit<T>(
        &mut self,
        name: impl Into<String>,
        layer: &'static str,
        group: u64,
        body: impl FnOnce(&mut Spans) -> T,
    ) -> T {
        let Some(cal) = self.cal.as_deref_mut() else {
            return self.spans.span(name, layer, group, body);
        };
        let before = cal.sample();
        let t = Instant::now();
        let out = self.spans.span(name, layer, group, body);
        let secs = t.elapsed().as_secs_f64();
        let after = cal.sample();
        self.wall += secs;
        self.scaled += calib::scale(secs, before, after);
        out
    }
}

/// Timings of a workload's reps and the first rep's output.
#[derive(Debug)]
pub struct Reps<T> {
    first: Option<T>,
    /// Seconds of each plain rep, scaled to the reference host.
    plain: Vec<f64>,
    /// Seconds of each traced rep, scaled to the reference host.
    traced: Vec<f64>,
    /// Wall seconds of each plain rep.
    wall: Vec<f64>,
}

impl<T> Reps<T> {
    /// The first rep's output (all reps' outputs share its digest).
    pub fn output(&self) -> &T {
        self.first.as_ref().expect("measure runs at least one rep")
    }

    /// Median plain rep, in seconds scaled to the reference host.
    pub fn run_s(&self) -> f64 {
        median(&self.plain)
    }
}

/// Command-line settings.
#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <paper_suite|coherence|lockserver_1m|locks_real> \
                     --seed <u64> --seconds <1..=600> --trace <0|1>";

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut values: BTreeMap<String, String> = BTreeMap::new();
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let key = match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" => flag,
            other => return Err(format!("unrecognized argument `{other}`")),
        };
        let value = it.next().ok_or_else(|| format!("{key} needs a value"))?;
        values.insert(key, value);
    }
    let mut get = |key: &str| values.remove(key).ok_or_else(|| format!("missing {key}"));
    let workload = get("--workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    let seed = get("--seed")?;
    let seed = seed
        .parse()
        .map_err(|_| format!("--seed must be a u64 (got `{seed}`)"))?;
    let seconds = get("--seconds")?;
    let seconds = match seconds.parse() {
        Ok(s @ 1..=600) => s,
        _ => {
            return Err(format!(
                "--seconds must be an integer in 1..=600 (got `{seconds}`)"
            ))
        }
    };
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1 (got `{other}`)")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Renders `(key, json value)` pairs as a JSON object.
fn json_object<'a>(fields: impl IntoIterator<Item = (&'a str, String)>) -> String {
    let body: Vec<String> = fields
        .into_iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c.is_control() => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Where the run record and spans are written: beside the build, inside
/// the checkout.
fn out_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into());
    PathBuf::from(target).join("perfbench-out")
}

fn run(args: &Args) -> Result<bool, String> {
    let mut ctx = Ctx::new(args.seed, Duration::from_secs(args.seconds), args.trace);
    match args.workload.as_str() {
        "paper_suite" => paper_suite::run(&mut ctx),
        "coherence" => coherence::run(&mut ctx),
        "lockserver_1m" => lockserver::run(&mut ctx),
        "locks_real" => locks_real::run(&mut ctx),
        other => unreachable!("parse_args admits only known workloads, not {other}"),
    }
    ctx.set("peak_rss_mib", host::peak_rss_mib()?);
    let attempted = ctx.attempted;
    if args.trace {
        let failed_frac = calc::failed_frac(ctx.failed, attempted.max(1));
        ctx.set("failed_frac", failed_frac);
        for (layer, secs) in ctx.spans.self_seconds() {
            ctx.set(format!("self_s.{layer}"), secs);
        }
    }
    let wanted: Vec<(String, &str)> = if args.trace {
        per_layer()
    } else {
        END_TO_END.iter().map(|&(n, u)| (n.to_owned(), u)).collect()
    };
    let metrics = json_object(wanted.iter().map(|(name, unit)| {
        let value = ctx.metrics.get(name).copied().unwrap_or(0.0);
        (
            name.as_str(),
            format!("{{\"value\": {value}, \"unit\": {}}}", json_str(unit)),
        )
    }));
    let digest = ctx.digest.map_or("null".to_owned(), |d| json_str(&d.hex()));
    let mut record = vec![
        ("workload", json_str(&args.workload)),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("cpu_model", json_str(&host::cpu_model())),
        ("nproc", host::nproc().to_string()),
        ("rustc", json_str(host::rustc_version())),
        ("output_digest", digest),
        (
            "failed_frac",
            calc::failed_frac(ctx.failed, attempted.max(1)).to_string(),
        ),
        (
            "problems",
            format!(
                "[{}]",
                ctx.problems
                    .iter()
                    .map(|p| json_str(p))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        ),
    ];
    record.extend(ctx.record.iter().map(|(k, v)| (k.as_str(), v.clone())));
    let all: Vec<(&str, String)> = ctx
        .metrics
        .iter()
        .map(|(k, v)| (k.as_str(), v.to_string()))
        .collect();
    record.push(("all_metrics", json_object(all)));
    let record = json_object(record);
    let correct = ctx.failed == 0 && attempted > 0;
    let result = json_object([
        ("correct", correct.to_string()),
        ("attempted", attempted.to_string()),
        ("failed", ctx.failed.to_string()),
        ("metrics", metrics),
    ]);

    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let write = |name: String, body: &str| {
        let path = dir.join(name);
        std::fs::write(&path, body).map_err(|e| format!("cannot write {}: {e}", path.display()))
    };
    write(
        format!("{stem}.json"),
        &json_object([("record", record.clone()), ("result", result.clone())]),
    )?;
    if args.trace {
        write(format!("{stem}-spans.json"), &ctx.spans.to_json())?;
    }
    for p in &ctx.problems {
        eprintln!("check failed: {p}");
    }
    println!("{}", json_object([("record", record)]));
    println!("{result}");
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload coherence --seed 7 --seconds 20 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("coherence", 7, 20, true)
        );
    }

    #[test]
    fn rejects_bad_arguments() {
        for bad in [
            "--workload nope --seed 1 --seconds 5 --trace 0",
            "--workload coherence --seed -1 --seconds 5 --trace 0",
            "--workload coherence --seed 1 --seconds 0 --trace 0",
            "--workload coherence --seed 1 --seconds 5 --trace 2",
            "--workload coherence --seed 1 --seconds 5",
            "--workload coherence --seed 1 --seconds 5 --trace 0 --extra",
        ] {
            assert!(args(bad).is_err(), "accepted `{bad}`");
        }
    }

    /// The metric tables here and in `BENCHMARK.json` must agree, name
    /// for name and unit for unit, in order.
    #[test]
    fn metric_tables_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let declared: Vec<(String, String)> = json
            .split("\"name\": \"")
            .skip(1)
            .filter_map(|chunk| {
                let name = chunk.split('"').next()?.to_owned();
                let unit = chunk
                    .split("\"unit\": \"")
                    .nth(1)?
                    .split('"')
                    .next()?
                    .to_owned();
                chunk.contains("\"unit\"").then_some((name, unit))
            })
            .collect();
        let ours: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_owned(), u.to_owned()))
            .chain(per_layer().into_iter().map(|(n, u)| (n, u.to_owned())))
            .collect();
        assert_eq!(declared, ours);
    }
}
