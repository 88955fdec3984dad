#!/usr/bin/env bash
# The benchmark's own acceptance check.
#
#   benchmark/check.sh            two sets of whole runs at one seed must agree
#   benchmark/check.sh --spread   ten seeds per workload, as the driver does
#
# Default mode: builds offline; runs `cargo test`; checks that every pass
# prints exactly the names BENCHMARK.json declares (and that the file obeys
# the contract's limits); runs two interleaved sets of the whole benchmark at
# one seed (per workload and set: three untraced runs, one traced); fails
# unless the sets' medians of every host end-to-end metric agree within its
# bound and every simulated metric, `bench.paper_shape_pass_share` and
# `bench.sim_fingerprint` is identical and no unit failed (one run is not a
# set: this sandbox has episodes in which a whole 20 s run is 30-100 %
# slower, which a median of three survives); fails if building, testing or
# running left behind anything `git status` sees (everything they write
# must be under the ignored benchmark/out/ and the target directory).
# Writes what it saw to benchmark/out/spread.json.
#
# --spread: runs each workload once per seed 1..10 (untraced) and reports,
# per end-to-end metric, the interquartile range as a share of the median
# (`statistics.quantiles(values, n=4)`) next to its bound — the acceptance
# rule of the driver. Fails if a spread exceeds its bound; warns above a
# third of it.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

mode="agree"
[[ "${1:-}" == "--spread" ]] && mode="spread"

target="${CARGO_TARGET_DIR:-benchmark/target}"
export CARGO_TARGET_DIR="$target"
before="$(git status --porcelain 2>/dev/null || true)"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
if [[ "$mode" == "agree" ]]; then
    cargo test --release --offline --quiet --manifest-path benchmark/Cargo.toml
fi
mkdir -p benchmark/out

BIN="$target/release/ido-benchmark" MODE="$mode" BEFORE="$before" python3 - <<'PY'
import json, os, re, statistics, subprocess, sys

BIN, MODE = os.environ["BIN"], os.environ["MODE"]
spec = json.load(open("BENCHMARK.json"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
problems = []


def fail_if(cond, msg):
    if cond:
        problems.append(msg)
        print("FAIL:", msg, file=sys.stderr)


# The contract's static limits.
fail_if(set(spec) != {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}, "BENCHMARK.json keys")
fail_if(not 2 <= len(spec["workloads"]) <= 8, "2-8 workloads")
fail_if(not 1 <= len(spec["end_to_end"]) <= 16, "1-16 end-to-end metrics")
fail_if(not 1 <= len(spec["per_layer"]) <= 128, "1-128 per-layer metrics")
names = [x["name"] for k in ("workloads", "end_to_end", "per_layer") for x in spec[k]]
fail_if(len(names) != len(set(names)), "a name is used twice")
for n in names:
    fail_if(not NAME.match(n), f"bad name {n!r}")
for m in spec["end_to_end"] + spec["per_layer"]:
    fail_if(not UNIT.match(m["unit"]), f"bad unit {m['unit']!r}")
    fail_if(m["better"] not in ("lower", "higher"), f"bad direction on {m['name']}")
for m in spec["end_to_end"]:
    fail_if(not 0 < m["bound"] <= 0.25, f"bound of {m['name']}")
for w in spec["workloads"]:
    fail_if(len(w["why"]) > 200 or "\n" in w["why"], f"why of {w['name']}")
fail_if(not any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower" for m in spec["end_to_end"]), "setup_s missing")

E2E = {m["name"]: m for m in spec["end_to_end"]}
LAYER = {m["name"]: m for m in spec["per_layer"]}
SECONDS = str(spec["run_seconds"])
# Host-clock per-layer metrics: everything measured in host time or derived
# from it. The rest is simulated or counted and must repeat exactly.
HOST_UNITS = {"us", "ns", "Msteps/s", "%", "1/s"}
HOST_NAMES = {"vm.tier2_speedup", "par.speedup_jobs2", "bench.unattributed_share"}


def run(workload, seed, trace):
    cmd = [BIN, "--workload", workload, "--seed", str(seed), "--seconds", SECONDS, "--trace", str(trace)]
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=True)
    r = json.loads(p.stdout.strip().splitlines()[-1])
    expect = LAYER if trace else E2E
    fail_if(set(r) != {"correct", "attempted", "failed", "metrics"}, f"{workload}: result keys {sorted(r)}")
    fail_if(set(r["metrics"]) != set(expect), f"{workload} trace={trace}: metric names differ from BENCHMARK.json")
    for n, v in r["metrics"].items():
        fail_if(v["unit"] != expect[n]["unit"], f"{workload}: unit of {n}")
    fail_if(not r["correct"] or r["failed"] != 0 or r["attempted"] < 1, f"{workload} seed {seed}: correct={r['correct']} failed={r['failed']}")
    if not trace:
        for n, v in r["metrics"].items():
            fail_if(v["value"] <= 0, f"{workload}: end-to-end metric {n} is {v['value']}")
    return r


report = {"mode": MODE, "workloads": {}}
if MODE == "agree":
    for w in (x["name"] for x in spec["workloads"]):
        untraced = ([], [])
        for _ in range(3):
            for side in untraced:  # A B A B A B: drift hits both sets alike
                side.append(run(w, 1, 0))
        traced = [run(w, 1, 1) for _ in untraced]
        entry = report["workloads"][w] = {"end_to_end": {}, "per_layer_host": {}}
        before = len(problems)
        for n, m in E2E.items():
            a, b = (statistics.median(r["metrics"][n]["value"] for r in side) for side in untraced)
            gap = abs(b - a) / a
            entry["end_to_end"][n] = {"first": a, "second": b, "gap": gap, "bound": m["bound"]}
            fail_if(gap > m["bound"], f"{w}: {n} differs by {gap:.1%} between two sets (bound {m['bound']:.0%})")
        for n, m in LAYER.items():
            a, b = (r["metrics"][n]["value"] for r in traced)
            if m["unit"] in HOST_UNITS or n in HOST_NAMES:
                entry["per_layer_host"][n] = {"first": a, "second": b}
            else:
                fail_if(a != b, f"{w}: simulated metric {n} differs between two runs: {a} vs {b}")
        print(f"{w}: {'two sets agree' if len(problems) == before else 'FAILED'}", file=sys.stderr)
    after = subprocess.run(["git", "status", "--porcelain"], stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    if after.returncode == 0:  # otherwise not a git checkout: nothing to compare
        left = sorted(set(after.stdout.splitlines()) - set(os.environ["BEFORE"].splitlines()))
        fail_if(left, f"building, testing or running left files git sees: {left}")
else:
    for w in (x["name"] for x in spec["workloads"]):
        runs = [run(w, seed, 0) for seed in range(1, 11)]
        entry = report["workloads"][w] = {}
        for n, m in E2E.items():
            values = [r["metrics"][n]["value"] for r in runs]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / q2
            entry[n] = {"median": q2, "q1": q1, "q3": q3, "spread": spread, "bound": m["bound"], "values": values}
            flag = "FAIL" if spread > m["bound"] else "warn" if spread > m["bound"] / 3 else "ok"
            print(f"{w:<16} {n:<14} median {q2:<14.6g} spread {spread:7.2%}  bound {m['bound']:.0%}  {flag}", file=sys.stderr)
            fail_if(spread > m["bound"] and n != "setup_s", f"{w}: spread of {n} is {spread:.1%} (bound {m['bound']:.0%})")

report["problems"] = problems
json.dump(report, open("benchmark/out/spread.json", "w"), indent=1)
print("wrote benchmark/out/spread.json", file=sys.stderr)
sys.exit(1 if problems else 0)
PY
