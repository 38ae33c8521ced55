#!/usr/bin/env bash
# CI entry point: build, test, lint, then smoke-run the experiment
# harness at CI scale with parallel jobs. Mirrors what the GitHub
# workflow runs; usable locally as ./ci.sh.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release --workspace"
cargo build --release --workspace

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> harness smoke run (all artifacts, fast scale, 2 jobs)"
./target/release/experiments all --fast --jobs 2 --out target/ci-experiments \
    --bench-json target/ci-experiments/bench.json >/dev/null

echo "==> robustness smoke (faulted sweep deterministic across --jobs)"
./target/release/experiments robustness --fast --jobs 1 \
    --out target/ci-rob-j1 >/dev/null
./target/release/experiments robustness --fast --jobs 4 \
    --out target/ci-rob-j4 >/dev/null
cmp target/ci-rob-j1/robustness.tsv target/ci-rob-j4/robustness.tsv
if ./target/release/experiments robustness --jobs 0 >/dev/null 2>&1; then
    echo "expected --jobs 0 to be rejected as a usage error"
    exit 1
fi

echo "==> faulted artifacts match known-good output (sha256 of the --fast TSVs)"
# The --jobs comparisons above and below only show a faulted sweep agrees
# with itself. These hashes pin the fast-scale robustness, lockserver and
# showdown TSVs (preemption plus the full fault stack) to known-good
# bytes, so a behaviour change in a fault layer or the disturbance fast
# path fails here. A deliberate behaviour change regenerates them with
# `sha256sum target/ci-experiments/{robustness,lockserver,showdown}.tsv`.
sha256sum -c --quiet - <<'EOF'
28b9f19de0e376e15f95a2d58cc588d74ef364b27976d820accccea669a56db4  target/ci-experiments/robustness.tsv
fdcf2513eb99c53ffaa702f6e7b91c087b272b16d3d4709d69f7db20572ee609  target/ci-experiments/lockserver.tsv
af9140ab22a3d93115fbbbad485ccaccfd6d704833a7c6c0d9e3761d8c843fdf  target/ci-experiments/showdown.tsv
EOF

echo "==> trace smoke (traced run must not change results)"
./target/release/experiments fig5 --fast --jobs 2 \
    --out target/ci-trace-off >/dev/null
./target/release/experiments fig5 --fast --jobs 2 \
    --out target/ci-trace-on \
    --trace target/ci-trace-on/trace.json \
    --metrics-json target/ci-trace-on/metrics.json >/dev/null
cmp target/ci-trace-off/fig5_time.tsv target/ci-trace-on/fig5_time.tsv
cmp target/ci-trace-off/fig5_handoff.tsv target/ci-trace-on/fig5_handoff.tsv
if command -v python3 >/dev/null 2>&1; then
    python3 - <<'EOF'
import json
for path in ("target/ci-trace-on/trace.json", "target/ci-trace-on/metrics.json"):
    with open(path) as f:
        doc = json.load(f)
    assert doc, f"{path} is empty"
events = json.load(open("target/ci-trace-on/trace.json"))["traceEvents"]
names = {e["name"] for e in events}
for required in ("LockAcquire", "CoherenceTxn", "GotAngry", "BackoffSleep"):
    assert required in names, f"trace missing {required} events"
print(f"trace OK: {len(events)} events, {len(names)} distinct names")
metrics = json.load(open("target/ci-trace-on/metrics.json"))
for lock in metrics["locks"]:
    assert "preemptions" in lock and "migrations" in lock, "metrics missing fault counters"
print(f"metrics OK: {len(metrics['locks'])} lock entries with fault counters")
EOF
else
    echo "python3 not found; skipping JSON parse validation"
fi

echo "==> profiler smoke (nuca-prof observes without changing a byte)"
# fig5 with and without --profile must be byte-identical: profiling only
# observes. The overhead legs run at *full* scale: fast-scale runs are
# sub-millisecond, so per-machine setup noise swamps the per-event cost
# the gate is actually about (and the wall clock there is ±15% anyway).
./target/release/experiments fig5 --fast --jobs 2 \
    --out target/ci-prof-off >/dev/null
./target/release/experiments fig5 --fast --jobs 2 \
    --out target/ci-prof-on \
    --profile target/ci-prof-on/profile.json >/dev/null
cmp target/ci-prof-off/fig5_time.tsv target/ci-prof-on/fig5_time.tsv
cmp target/ci-prof-off/fig5_handoff.tsv target/ci-prof-on/fig5_handoff.tsv
# Best-of-three per leg: single full-scale runs jitter ±10% on a noisy
# box, which is the same order as the overhead being gated.
for rep in 1 2 3; do
    ./target/release/experiments fig5 --jobs 2 \
        --out target/ci-prof-off \
        --bench-json "target/ci-prof-off/bench$rep.json" >/dev/null
    ./target/release/experiments fig5 --jobs 2 \
        --out target/ci-prof-on \
        --bench-json "target/ci-prof-on/bench$rep.json" \
        --profile target/ci-prof-on/profile-full.json >/dev/null
done
if command -v python3 >/dev/null 2>&1; then
    python3 - <<'EOF'
import json
doc = json.load(open("target/ci-prof-on/profile.json"))
assert doc["version"] == 2, f"unexpected profile schema version {doc['version']}"
labels = [entry["label"] for entry in doc["labels"]]
assert labels == sorted(labels), "profile labels not sorted"
assert len(labels) >= 13, f"expected a profile per registered lock kind, got {labels}"
for entry in doc["labels"]:
    assert entry["events"] > 0, f"{entry['label']}: empty profile"
    lock = entry["locks"][0]
    for key in ("acquires", "local_handoffs", "remote_handoffs", "chains",
                "node_acquires", "cpu_acquires", "residency_runs", "wait", "phases"):
        assert key in lock, f"{entry['label']}: profile missing {key}"
    # One non-handover acquisition per merged chain (fig5 merges one
    # machine per critical_work level under each lock-kind label).
    assert lock["local_handoffs"] + lock["remote_handoffs"] + lock["chains"] \
        == lock["acquires"], f"{entry['label']}: handoff totals inconsistent"
    # In-repo lock kinds account every backoff cycle inside its acquire
    # window; a clamped window means the spin residual lost cycles.
    assert lock["phases"]["spin_clamped"] == 0, \
        f"{entry['label']}: {lock['phases']['spin_clamped']} clamped windows"
print(f"profile OK: {len(labels)} labels, schema v{doc['version']}")
# Overhead gate: streaming profiling must stay cheap. Best-of-three
# events/s of the profiled leg vs the unprofiled leg, both at full scale
# and same jobs. With the paper's 8 kinds this measured 0.90-0.93x
# across containers; the 13-kind catalog sweep lands at ~0.86x — the
# queue-family contenders (TICKET/TWA/CNA/RECIP) spend a larger share
# of their events in fold-heavy categories (handoffs, acquire windows),
# so the *mix* got costlier, not the fold (the 8-kind ratio is
# unchanged at ~0.92). The 0.78 floor keeps the same ±10%-jitter
# headroom below the new operating point while still catching a gross
# fold-cost regression.
off = max(json.load(open(f"target/ci-prof-off/bench{r}.json"))["sim_events_per_sec"]
          for r in (1, 2, 3))
on = max(json.load(open(f"target/ci-prof-on/bench{r}.json"))["sim_events_per_sec"]
         for r in (1, 2, 3))
ratio = on / off
line = f"events/s profiled {on/1e6:.1f}M vs plain {off/1e6:.1f}M ({ratio:.2f}x)"
if ratio < 0.78:
    raise SystemExit(f"FAIL {line} - profiling overhead regression")
print("OK " + line)
EOF
else
    echo "python3 not found; skipping profile JSON validation"
fi

echo "==> handoff artifact smoke (deterministic across --jobs)"
./target/release/experiments handoff --fast --jobs 1 \
    --out target/ci-handoff-j1 >/dev/null
./target/release/experiments handoff --fast --jobs 4 \
    --out target/ci-handoff-j4 >/dev/null
cmp target/ci-handoff-j1/handoff.tsv target/ci-handoff-j4/handoff.tsv
if command -v python3 >/dev/null 2>&1; then
    python3 - <<'EOF'
# The artifact's headline: HBO-family node-handoff locality beats the
# node-blind locks at the sweep's top CPU count.
rows = [line.rstrip("\n").split("\t")
        for line in open("target/ci-handoff-j1/handoff.tsv")]
header, body = rows[0], rows[1:]
rate_col = header.index("Remote Rate")
cpu_col = header.index("CPUs")
top = max(int(r[cpu_col]) for r in body)
rate = {r[0]: float(r[rate_col]) for r in body if int(r[cpu_col]) == top}
for nuca in ("HBO", "HBO_GT", "HBO_GT_SD"):
    for blind in ("MCS", "CLH", "TATAS"):
        assert rate[nuca] < rate[blind], \
            f"{nuca} remote rate {rate[nuca]} not below {blind} {rate[blind]}"
print(f"handoff OK at {top} cpus: HBO_GT_SD {rate['HBO_GT_SD']:.2f} "
      f"vs MCS {rate['MCS']:.2f} vs TATAS {rate['TATAS']:.2f}")
EOF
fi

echo "==> profiler memory-budget regression (full-scale cell, release)"
cargo test --release -q -p nuca-experiments --lib -- --ignored \
    full_scale_profile_memory_stays_bounded

echo "==> selftime smoke (--features selftime exports attribution keys)"
cargo build --release -q -p nuca-experiments --features selftime
./target/release/experiments fig5 --fast --jobs 2 \
    --out target/ci-selftime \
    --metrics-json target/ci-selftime/metrics.json >/dev/null
if command -v python3 >/dev/null 2>&1; then
    python3 - <<'EOF'
import json
st = json.load(open("target/ci-selftime/metrics.json"))["selftime"]
for key in ("resume_ticks", "mem_ticks", "queue_ticks", "total_ticks"):
    assert key in st, f"selftime block missing {key}"
assert st["total_ticks"] > 0, "selftime counted nothing"
print(f"selftime OK: {st}")
EOF
fi
# Rebuild without the feature so later smokes run the default binary.
cargo build --release -q -p nuca-experiments

echo "==> scheduler smoke (wheel-vs-heap differential test, soft perf gate)"
cargo test --release -q -p nuca-experiments --test sched_differential
# The engine owns one time wheel; the old scheduler switch is gone and
# must be refused like any other unknown flag.
if sched_err=$(./target/release/experiments fig5 --fast --sched heap 2>&1 >/dev/null); then
    echo "expected --sched to be rejected as an unrecognized flag"
    exit 1
fi
if ! grep -q "unrecognized flag \`--sched\`" <<<"$sched_err"; then
    echo "expected an 'unrecognized flag' error for --sched, got: $sched_err"
    exit 1
fi
# Fresh best-of-three measurements for the soft gate below: the
# top-of-script smoke run lands cold on the heels of build+test+clippy
# and can read 40% low on a loaded box.
for rep in 1 2 3; do
    ./target/release/experiments all --fast --jobs 2 \
        --out target/ci-sched-gate \
        --bench-json "target/ci-sched-gate/bench$rep.json" >/dev/null
done
if command -v python3 >/dev/null 2>&1; then
    python3 - <<'EOF'
# Soft throughput gate: compare the fast-scale smoke run against the
# checked-in full-scale baseline. Events/sec is scale-independent enough
# for a coarse gate; CI boxes are noisy, so a shortfall only *fails* past
# 30%, and anything between baseline and -30% just warns.
import json
base = json.load(open("BENCH_harness.json"))["sim_events_per_sec"]
now = max(json.load(open(f"target/ci-sched-gate/bench{r}.json"))["sim_events_per_sec"]
          for r in (1, 2, 3))
ratio = now / base
line = f"events/s: smoke {now/1e6:.1f}M vs baseline {base/1e6:.1f}M ({ratio:.2f}x)"
if ratio < 0.7:
    raise SystemExit(f"FAIL {line} - >30% regression")
print(("WARN " if ratio < 1.0 else "OK ") + line)
EOF
else
    echo "python3 not found; skipping events/s gate"
fi

echo "==> lockserver smoke (deterministic across --jobs, flag usage errors)"
./target/release/experiments lockserver --fast --jobs 1 \
    --out target/ci-lockserver-j1 >/dev/null
./target/release/experiments lockserver --fast --jobs 4 \
    --out target/ci-lockserver-j4 >/dev/null
cmp target/ci-lockserver-j1/lockserver.tsv target/ci-lockserver-j4/lockserver.tsv
for bad in "--shards 0" "--zipf 1.5" "--arrival-gap 0"; do
    # shellcheck disable=SC2086  # word-splitting the flag+operand is the point
    if ./target/release/experiments lockserver --fast $bad >/dev/null 2>&1; then
        echo "expected \`$bad\` to be rejected as a usage error"
        exit 1
    fi
done
./target/release/experiments lockserver --fast --jobs 2 \
    --shards 4 --zipf 0.5 --arrival-gap 8000 \
    --out target/ci-lockserver-flags >/dev/null

echo "==> showdown smoke (deterministic across --jobs, --kinds flag)"
./target/release/experiments showdown --fast --jobs 1 \
    --out target/ci-showdown-j1 >/dev/null
./target/release/experiments showdown --fast --jobs 4 \
    --out target/ci-showdown-j4 >/dev/null
cmp target/ci-showdown-j1/showdown.tsv target/ci-showdown-j4/showdown.tsv
if ./target/release/experiments showdown --fast --kinds QOLB >/dev/null 2>&1; then
    echo "expected an unregistered --kinds name to be rejected as a usage error"
    exit 1
fi
if ./target/release/experiments showdown --fast --kinds "MCS,,CLH" >/dev/null 2>&1; then
    echo "expected an empty --kinds entry to be rejected as a usage error"
    exit 1
fi
# --kinds narrows the sweep and is flag-order-insensitive: the selection
# is normalized to catalog registration order before any job runs.
./target/release/experiments showdown --fast --jobs 2 --kinds CNA,MCS \
    --out target/ci-showdown-k1 >/dev/null
./target/release/experiments showdown --fast --jobs 3 --kinds MCS,CNA \
    --out target/ci-showdown-k2 >/dev/null
cmp target/ci-showdown-k1/showdown.tsv target/ci-showdown-k2/showdown.tsv
if command -v python3 >/dev/null 2>&1; then
    python3 - <<'EOF'
# The headline table: every registered kind appears, the modern trio
# (CNA/TWA/RECIP) rides alongside the paper's eight, and no lock gets
# faster under the full fault stack.
rows = [line.rstrip("\n").split("\t")
        for line in open("target/ci-showdown-j1/showdown.tsv")]
header, body = rows[0], rows[1:]
kinds = {r[0] for r in body}
for required in ("TATAS", "MCS", "HBO_GT_SD", "TICKET", "HIER",
                 "CNA", "TWA", "RECIP"):
    assert required in kinds, f"showdown missing {required} rows"
deg_col = header.index("degradation")
for r in body:
    assert float(r[deg_col]) >= 1.0, \
        f"{r[0]} at {r[header.index('CPUs')]} cpus sped up under faults"
print(f"showdown OK: {len(kinds)} kinds x {len(body)//len(kinds)} cpu counts")
EOF
fi

echo "==> protocol smoke (flat default byte-identity, MESI/Dragon determinism, falsesharing headline)"
# The flat default and an explicit --protocol flat are the same model:
# every artifact TSV must be byte-identical to the default-run output.
./target/release/experiments colloc fig5 --fast --jobs 2 --protocol flat \
    --out target/ci-proto-flat >/dev/null
cmp target/ci-experiments/colloc.tsv target/ci-proto-flat/colloc.tsv
cmp target/ci-experiments/fig5_time.tsv target/ci-proto-flat/fig5_time.tsv
cmp target/ci-experiments/fig5_handoff.tsv target/ci-proto-flat/fig5_handoff.tsv
# MESI and Dragon runs obey the same determinism contract as flat ones:
# byte-identical across --jobs, including the robustness sweep whose
# migrations reshuffle the per-node CPU masks (and the protocol must
# actually change the numbers).
for proto in mesi dragon; do
    ./target/release/experiments falsesharing colloc robustness --fast --jobs 1 \
        --protocol "$proto" --out "target/ci-proto-$proto-j1" >/dev/null
    ./target/release/experiments falsesharing colloc robustness --fast --jobs 4 \
        --protocol "$proto" --out "target/ci-proto-$proto-j4" >/dev/null
    for tsv in falsesharing falsesharing_twa colloc robustness; do
        cmp "target/ci-proto-$proto-j1/$tsv.tsv" "target/ci-proto-$proto-j4/$tsv.tsv"
    done
    if cmp -s "target/ci-proto-$proto-j1/colloc.tsv" target/ci-experiments/colloc.tsv; then
        echo "expected --protocol $proto to change the colloc numbers"
        exit 1
    fi
done
for bad in "--protocol splay" "--binding diagonal" "--twa-slots 0" "--twa-hash xor"; do
    # shellcheck disable=SC2086  # word-splitting the flag+operand is the point
    if ./target/release/experiments colloc --fast $bad >/dev/null 2>&1; then
        echo "expected \`$bad\` to be rejected as a usage error"
        exit 1
    fi
done
./target/release/experiments fig5 --fast --jobs 2 --binding clustered \
    --twa-slots 64 --twa-hash stride --out target/ci-proto-flags >/dev/null
if command -v python3 >/dev/null 2>&1; then
    python3 - <<'EOF'
# The falsesharing headline: under MESI the colocated layout pays for
# sharing the lock's cache line (time and global transactions), while
# the word-granular flat model shows a zero gap by construction.
rows = [line.rstrip("\n").split("\t")
        for line in open("target/ci-experiments/falsesharing.tsv")]
header, body = rows[0], rows[1:]
cell = {r[0]: r for r in body}
fns, fgt = header.index("flat ns/acq"), header.index("flat gtxn")
mns, mgt = header.index("mesi ns/acq"), header.index("mesi gtxn")
for kind in ("TATAS_EXP", "HBO_GT", "MCS"):
    co, pad = cell[f"{kind} colocated"], cell[f"{kind} padded"]
    assert co[fns] == pad[fns] and co[fgt] == pad[fgt], \
        f"{kind}: flat model sees the layout ({co[fns]} vs {pad[fns]})"
co, pad = cell["TATAS_EXP colocated"], cell["TATAS_EXP padded"]
ratio = float(co[mns]) / float(pad[mns])
assert ratio > 1.03, f"MESI colocated/padded ns ratio {ratio:.3f}: no false-sharing cost"
assert int(co[mgt]) > int(pad[mgt]), \
    f"MESI colocation added no global traffic ({co[mgt]} vs {pad[mgt]})"
print(f"falsesharing OK: flat gap 0, MESI colocated/padded {ratio:.2f}x "
      f"({co[mgt]} vs {pad[mgt]} gtxn)")
EOF
fi

echo "==> million-lock memory regression (tiered per-lock stats, lazy spans, release)"
cargo test --release -q -p nucasim --lib -- --ignored \
    million_lock_indices_stay_bounded million_span_words_materialize_on_touch

echo "==> model checker smoke (exhaustive pass, mutants caught, usage errors)"
out=$(./target/release/nuca-mcheck --kind all --cpus 2 \
    --bench-json target/ci-experiments/mcheck.json 2>&1)
echo "$out" | tail -1
if ! grep -q "checked 13 subject" <<<"$out"; then
    echo "expected --kind all to exhaust every registered kind (13 subjects)"
    exit 1
fi
if command -v python3 >/dev/null 2>&1; then
    python3 - <<'EOF'
# The checked-in baseline must keep the mcheck block a harness
# regeneration does not write (see EXPERIMENTS.md).
import json
base = json.load(open("BENCH_harness.json")).get("mcheck")
if base is None:
    raise SystemExit('BENCH_harness.json lost its "mcheck" block')
now = json.load(open("target/ci-experiments/mcheck.json"))
print(f"mcheck: {now['states_per_sec']} vs baseline {base['states_per_sec']} states/s")
EOF
fi
for mutant in racy_tatas leaky_hbo_gt; do
    if out=$(./target/release/nuca-mcheck --kind "$mutant" 2>/dev/null); then
        echo "expected the $mutant mutant to fail the checker"
        exit 1
    fi
    if ! grep -q "counterexample for" <<<"$out"; then
        echo "expected a rendered counterexample for $mutant"
        exit 1
    fi
done
# The CNA splice mutant drops the secondary queue on handoff; two CPUs
# never populate it, so the checker needs a third to expose the loss.
if out=$(./target/release/nuca-mcheck --kind splice_lost_cna --cpus 3 2>/dev/null); then
    echo "expected the splice_lost_cna mutant to fail the checker at 3 cpus"
    exit 1
fi
if ! grep -q "counterexample for" <<<"$out"; then
    echo "expected a rendered counterexample for splice_lost_cna"
    exit 1
fi
if ./target/release/nuca-mcheck --cpus two >/dev/null 2>&1; then
    echo "expected non-numeric --cpus to be rejected as a usage error"
    exit 1
fi
if ./target/release/nuca-mcheck --frobnicate >/dev/null 2>&1; then
    echo "expected an unknown flag to be rejected as a usage error"
    exit 1
fi
./target/release/nuca-mcheck --kind hbo --random 200 --seed 7 >/dev/null

echo "==> ci OK"
