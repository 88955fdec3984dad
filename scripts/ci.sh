#!/usr/bin/env bash
# CI entry point: build, full test suite, and a crash-oracle smoke sweep.
#
# Proptest regression files (tests/*.proptest-regressions) are committed and
# replayed automatically by proptest before new random cases — the guard
# below fails loudly if one goes missing so a rename can't silently drop
# recorded failures.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== check: proptest regression files present =="
test -f tests/proptest_crash.proptest-regressions \
  || { echo "missing proptest regression file"; exit 1; }

echo "== build (release) =="
cargo build --release --workspace

echo "== test (workspace) =="
cargo test --workspace -q

echo "== cross-tier differential harness + scheduler equivalence (tier-2 must match tier-1, run-ahead must match the per-step scan) =="
# Named gates for the block-compiled engine: byte-identical images, stats,
# and traces across tiers; the pre-decode goldens reproduced on tier 2;
# and the tier-2 crash-oracle pass (exhaustive explore + sabotage
# self-test). All also run under the workspace pass above — kept explicit
# so a tier-2 or scheduler regression is called out by name in the CI log.
cargo test -q -p ido-workloads --test tier_equivalence
# Scheduler-equivalence gate: the shared ready-key scheduler with run-ahead
# must schedule, step for step, what the per-step thread scan it replaced
# did (kept as a cfg(test) reference) — 1-65 threads, both policies, both
# tiers, across hook pauses, small budgets and threads added between calls.
cargo test -q -p ido-vm --lib sched_equivalence
cargo test -q -p ido-workloads --test decoded_golden
cargo test -q -p ido-vm --test trace_golden
cargo test -q -p ido-crashtest --test tier2_oracle

echo "== static atomicity lint + differential smoke (verify_report) =="
# Lints every standard workload under every scheme and cross-checks the
# static verdicts against the crash oracle; any violation or
# static/dynamic disagreement makes the binary assert and fail CI.
IDO_BENCH_QUICK=1 cargo run -q --release -p ido-bench --bin verify_report

echo "== crash-oracle smoke sweep =="
IDO_ORACLE_SMOKE=1 cargo run -q --release -p ido-bench --bin crash_oracle

echo "== interpreter throughput smoke (quick mode, tier-1 + tier-2 series) =="
# interp_bench measures every bench on both execution tiers and asserts
# equal step counts per pair, so this smoke also gates tier-2 determinism.
IDO_BENCH_QUICK=1 cargo run -q --release -p ido-bench --bin interp_bench

echo "== trace smoke: quick trace_report + JSON/event-kind self-check =="
IDO_BENCH_QUICK=1 IDO_TRACE_SMOKE=1 cargo run -q --release -p ido-bench --bin trace_report

echo "== trace determinism: IDO_JOBS=2 must match IDO_JOBS=1 byte-for-byte =="
IDO_BENCH_QUICK=1 IDO_JOBS=1 cargo run -q --release -p ido-bench --bin trace_report > /dev/null
cp target/figures/trace_hash-map.trace.json /tmp/trace_jobs1.json
IDO_BENCH_QUICK=1 IDO_JOBS=2 cargo run -q --release -p ido-bench --bin trace_report > /dev/null
cmp /tmp/trace_jobs1.json target/figures/trace_hash-map.trace.json \
  || { echo "IDO_JOBS=2 changed the emitted trace"; exit 1; }
rm -f /tmp/trace_jobs1.json

echo "== interp-throughput smoke with tracing explicitly disabled =="
IDO_TRACE=0 IDO_BENCH_QUICK=1 cargo run -q --release -p ido-bench --bin interp_bench

echo "== sweep determinism: IDO_JOBS=2 must match IDO_JOBS=1 =="
IDO_BENCH_QUICK=1 IDO_JOBS=1 cargo run -q --release -p ido-bench --bin interp_bench
cp BENCH_interp.json /tmp/bench_jobs1.json
IDO_BENCH_QUICK=1 IDO_JOBS=2 cargo run -q --release -p ido-bench --bin interp_bench
# Steps (and everything else derived from simulation state) are identical
# across job counts; only wall-clock fields may differ.
for f in /tmp/bench_jobs1.json BENCH_interp.json; do
  grep -o '"steps": [0-9]*' "$f" > "$f.steps"
done
diff /tmp/bench_jobs1.json.steps BENCH_interp.json.steps \
  || { echo "IDO_JOBS=2 changed simulation results"; exit 1; }
rm -f /tmp/bench_jobs1.json /tmp/bench_jobs1.json.steps BENCH_interp.json.steps

echo "== allocator crash sweeps (persist-trap boundary enumeration) =="
# Named gates for the sharded two-level allocator: every-flush-boundary
# interruption sweeps (legacy + sharded policies) and the cross-shard
# property tests. Both also run under the workspace pass above — kept
# explicit so an allocator crash-consistency regression is named in the
# CI log.
cargo test -q -p ido-nvm --test alloc_crash
cargo test -q -p ido-nvm --test alloc_shard

echo "== windowed metrics gates: golden series, fan-out determinism, zero-alloc =="
# Named gates for the metrics subsystem: the checked-in iDO window-series
# golden, the jobs-invariant shard fan-out, and the metered hot loop's
# zero-allocation pin (which measures a *second* `run_steps` call, so it
# also pins the scheduler's key rebuild on entry as allocation-free). All
# also run under the workspace pass above.
cargo test -q -p ido-workloads --test service_metrics
cargo test -q -p ido-workloads --test no_alloc_hot_loop

echo "== service bench smoke (crash under load, online-recovery windows) =="
# Quick-mode runs rewrite BENCH_service.json; preserve the committed
# full-run numbers and restore them after the determinism diff. The
# binary itself asserts the crash lands mid-traffic for every durable
# scheme, re-verifies the recovered table, and validates every emitted
# JSON artifact before writing it.
cp BENCH_service.json /tmp/bench_service_committed.json
IDO_BENCH_QUICK=1 IDO_JOBS=1 cargo run -q --release -p ido-bench --bin service_bench
cp BENCH_service.json /tmp/bench_service_jobs1.json
IDO_BENCH_QUICK=1 IDO_JOBS=2 cargo run -q --release -p ido-bench --bin service_bench
# BENCH_service.json holds only simulated quantities, so it must be
# byte-identical for any worker count.
cmp /tmp/bench_service_jobs1.json BENCH_service.json \
  || { echo "IDO_JOBS=2 changed service bench results"; exit 1; }
mv /tmp/bench_service_committed.json BENCH_service.json
rm -f /tmp/bench_service_jobs1.json

echo "== metrics-off overhead guard (best-of-7 wall ns/step) =="
# Disabled metrics must stay one untaken branch per marker: the guard
# compares per-step wall cost of a marked vs unmarked hot loop and fails
# CI if the disabled path grows past the tolerance.
IDO_BENCH_QUICK=1 cargo run -q --release -p ido-bench --bin metrics_guard

echo "== lock-free scheme gates: oracle sweeps, differential, rcas proptests =="
# Named gates for the recoverable lock-free family: exhaustive crash
# exploration of the lock-free list/map on both execution tiers (clean
# sweeps + injected window-flush/publish bugs caught), the seed
# structures' native invariant checkers under oracle exploration, the
# static/dynamic differential on the lock-free invariants, the
# crash-at-every-persist-boundary rcas proptests, and the metrics
# span-accounting regression tests. All also run under the workspace
# pass above — kept explicit so a lock-free crash-consistency
# regression is named in the CI log.
cargo test -q -p ido-crashtest --test lockfree_oracle
cargo test -q -p ido-crashtest --test structures_oracle
cargo test -q -p ido-verify --test lockfree_differential
cargo test -q -p ido-lockfree --test rcas_proptest
cargo test -q -p ido-metrics

echo "== lock-free contention smoke (quick mode, window <= eager clwb gate) =="
# Quick-mode runs rewrite BENCH_lockfree.json; preserve the committed
# full-sweep numbers and restore them after the determinism diff. The
# binary itself asserts every point completes and that window flushing
# never issues more clwbs than eager flushing.
cp BENCH_lockfree.json /tmp/bench_lockfree_committed.json
IDO_BENCH_QUICK=1 IDO_JOBS=1 cargo run -q --release -p ido-bench --bin lockfree_bench
cp BENCH_lockfree.json /tmp/bench_lockfree_jobs1.json
IDO_BENCH_QUICK=1 IDO_JOBS=2 cargo run -q --release -p ido-bench --bin lockfree_bench
# BENCH_lockfree.json holds only simulated quantities, so it must be
# byte-identical for any worker count.
cmp /tmp/bench_lockfree_jobs1.json BENCH_lockfree.json \
  || { echo "IDO_JOBS=2 changed lock-free bench results"; exit 1; }
mv /tmp/bench_lockfree_committed.json BENCH_lockfree.json
rm -f /tmp/bench_lockfree_jobs1.json

echo "== allocator scaling smoke (quick mode, asserts >= 4x at 64T) =="
# Quick-mode runs rewrite BENCH_alloc.json; preserve the committed
# full-sweep numbers and restore them after the determinism diff.
cp BENCH_alloc.json /tmp/bench_alloc_committed.json
IDO_BENCH_QUICK=1 IDO_JOBS=1 cargo run -q --release -p ido-bench --bin alloc_bench
cp BENCH_alloc.json /tmp/bench_alloc_jobs1.json
IDO_BENCH_QUICK=1 IDO_JOBS=2 cargo run -q --release -p ido-bench --bin alloc_bench
# BENCH_alloc.json holds only simulated quantities, so it must be
# byte-identical for any worker count.
cmp /tmp/bench_alloc_jobs1.json BENCH_alloc.json \
  || { echo "IDO_JOBS=2 changed allocator bench results"; exit 1; }
mv /tmp/bench_alloc_committed.json BENCH_alloc.json
rm -f /tmp/bench_alloc_jobs1.json

echo "== textual frontend gates: corpus round-trip, diagnostics goldens, fuzz =="
# Named gates for the `.ido` frontend: the corpus suite (parse +
# pretty-print round-trip, both-tier byte-identity vs the Rust builder,
# mutation fuzz, crash-oracle smoke), the random-program round-trip
# fuzzer, and the pinned parser/explain diagnostic renderings. All also
# run under the workspace pass above — kept explicit so a frontend
# regression is named in the CI log.
cargo test -q -p ido-repro --test corpus
cargo test -q -p ido-lang --test roundtrip_fuzz
cargo test -q -p ido-lang --test diagnostics_golden
cargo test -q -p ido-lang --test explain_golden

echo "== ido verify over the scenario corpus (static atomicity, all schemes) =="
# Every checked-in scenario must verify clean under every scheme it names.
for f in corpus/*.ido; do
  cargo run -q --release -p ido-repro --bin ido -- verify "$f"
done

echo "== ido run --compare-builder: corpus runs byte-identical to the builder =="
# The CLI re-runs each scheme from the native Rust-builder program and
# requires identical steps, simulated clocks, stats, and pool-image hash.
for f in corpus/*.ido; do
  cargo run -q --release -p ido-repro --bin ido -- run "$f" --compare-builder > /dev/null
done

echo "== ido run determinism: --jobs 2 must match --jobs 1 byte-for-byte =="
cargo run -q --release -p ido-repro --bin ido -- run corpus/map.ido --jobs 1 \
  > /tmp/ido_run_jobs1.json
cargo run -q --release -p ido-repro --bin ido -- run corpus/map.ido --jobs 2 \
  > /tmp/ido_run_jobs2.json
cmp /tmp/ido_run_jobs1.json /tmp/ido_run_jobs2.json \
  || { echo "--jobs 2 changed ido run output"; exit 1; }
IDO_JOBS=2 cargo run -q --release -p ido-repro --bin ido -- run corpus/map.ido \
  > /tmp/ido_run_envjobs.json
cmp /tmp/ido_run_jobs1.json /tmp/ido_run_envjobs.json \
  || { echo "IDO_JOBS=2 changed ido run output"; exit 1; }
rm -f /tmp/ido_run_jobs1.json /tmp/ido_run_jobs2.json /tmp/ido_run_envjobs.json

echo "CI OK"
