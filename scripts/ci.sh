#!/usr/bin/env bash
# CI entry point: build, full test suite, smoke runs of every bench and
# table binary, the figure regeneration, and the CLI gates. Everything a run writes lands under
# target/, so the tree is clean afterwards.
#
# Proptest regression files (tests/*.proptest-regressions) are committed and
# replayed automatically by proptest before new random cases — the guard
# below fails loudly if one goes missing so a rename can't silently drop
# recorded failures.
set -euo pipefail
cd "$(dirname "$0")/.."

# `timed <label> <command...>`: runs the command and prints how long it
# took, so a stage getting slower (or faster) is in the log.
timed() {
  local label=$1 start=$SECONDS
  shift
  "$@"
  echo "-- $label: $((SECONDS - start)) s"
}

echo "== check: proptest regression files present =="
test -f tests/proptest_crash.proptest-regressions \
  || { echo "missing proptest regression file"; exit 1; }

echo "== build (release) =="
cargo build --release --workspace

echo "== test (workspace) =="
# Not -q: every suite is named in the log as it runs, so a regression in
# one of the gates below is called out by name — the cross-tier
# differential harness (tier_equivalence, decoded_golden, trace_golden,
# tier2_oracle), scheduler equivalence (ido-vm --lib sched_equivalence),
# the tournament tree against the linear scan, pick for pick and limit for
# limit, and its nodes-per-pick bound (ido-vm --lib
# tree_matches_the_linear_scan_on_random_operation_sequences,
# picks_visit_logarithmically_many_nodes),
# the forked oracle against the from-scratch one (fork_equivalence), a
# scenario sweep at any job count (ido-lang sweep_determinism) and the
# O(dirty) crash against the full reload (ido-nvm --lib
# crash_with_matches_the_full_reload_reference, proptest_nvm),
# zone-incremental region formation against the analyse-everything-per-fixup
# loop (ido-idem partition_equivalence),
# allocator crash sweeps (alloc_crash, alloc_shard), metrics gates
# (service_metrics, no_alloc_hot_loop), a recycled pool (ido-nvm --lib
# a_recycled_pool_is_indistinguishable_from_a_fresh_one and its mapped
# twin, a_same_size_pool_reuses_the_mapped_spare,
# a_pool_of_another_size_frees_the_mapped_spares_first,
# kept_pages_are_those_both_last_users_touched,
# a_mapped_spare_stays_resident_only_where_both_last_users_went, and
# second_vm_allocates_no_image: a VM built after one of its size was
# dropped allocates no pool image, at 1 and 64 MiB), lock-free gates (lockfree_oracle,
# structures_oracle, lockfree_differential, rcas_proptest) and the
# textual-frontend gates (corpus, roundtrip_fuzz, diagnostics_golden,
# explain_golden).
timed "workspace tests" cargo test --workspace

echo "== region formation: partition against the reference loop at full size, and its scaling =="
# The workspace run above already did both unoptimized; in a release build
# the differential reaches the 2 048-instruction synthetic function (the
# reference loop is quadratic) and the scaling test's wall-clock backstop
# for 8 192 instructions is armed.
timed "region formation" cargo test -q --release -p ido-idem \
  --test partition_equivalence --test partition_scaling

echo "== scheme seams: one home per scheme in ido-vm =="
# The engine names no scheme (every dispatch on one is in
# crates/vm/src/scheme/mod.rs), the thread registry's entry arithmetic is
# written once, the recoverable-CAS protocol is spelled in ido-lockfree only
# (ido-vm calls its steps), an `Rt` op names an event and never a scheme (the
# fourteen per-scheme variants and their ten mnemonics stay gone; the one
# written down is the input of the diagnostic pinning it as unknown), every
# observed event goes to the handle's one recorder, a pool and a VM have one
# driver (no atomic, lock or padding in ido-nvm or ido-vm), unsafe code and
# foreign calls live in crates/nvm/src/pool.rs only, and the refactor-proof
# goldens (forward runs and crash + recover rows, both tiers)
# hold in an optimized build. Tier 1 defines each instruction once, over a
# thread whose running frame is a field. A thread lends its scheme state:
# `Rt` ops and the store path borrow it beside the thread's other fields, so
# nothing moves it out, and tier 2 borrows the frame's registers in place.
scheme_seams() {
  if grep -n 'Scheme::' crates/vm/src/exec.rs crates/vm/src/tier2.rs crates/vm/src/recovery.rs; then
    echo "the engine dispatches on a scheme outside crates/vm/src/scheme/"; return 1
  fi
  if grep -rn '+ 8 + i \* 32\|+ 8 + idx \* 32' crates/vm crates/workloads | grep -v '^crates/vm/src/layout.rs:'; then
    echo "the thread registry is decoded outside layout::Registry"; return 1
  fi
  if grep -rn 'DESC_\|STATE_INFLIGHT\|STATE_DONE\|CELL_TAG\|encode_tag\|tag_owner\|tag_seq' crates/vm/src; then
    echo "ido-vm names a descriptor word or cell tag: the protocol lives in ido-lockfree"; return 1
  fi
  if grep -rnE 'rt\.(ido_lock|justdo_lo|atlas_|nvml_|nvthreads_)|(Ido|JustDo|Atlas)Lock(Acquired|Releasing)|AtlasUndoLog|NvmlTxAdd|NvthreadsPageTouch|JustDoLog' crates src tests examples corpus \
      | grep -v '^crates/lang/tests/\(goldens/diag_unknown_rt_op.txt\|diagnostics_golden.rs\):'; then
    echo "an Rt op or mnemonic names its scheme: the program carries the scheme"; return 1
  fi
  # Observation plane: one recorder per pool handle, defined in ido-trace —
  # no metrics crate, second buffer, second recovery call or VM-side
  # profile, and no tracing switched on from the environment.
  if grep -rnE 'ido_metrics|ido-metrics|MetricsHandle|MetricsBuf|metrics_recovery|record_region|record_fase|from_env|IDO_TRACE(=|_BUF)' \
      crates src tests examples README.md Cargo.toml; then
    echo "a second observation path: every event is one call on the handle's one recorder"; return 1
  fi
  # One driver: a pool, its handles, its allocator and the VM are driven
  # from one host thread (and are !Send + !Sync), so no locked instruction,
  # lock or padding against another thread belongs in either crate. The
  # Arcs left there hold shared immutable values.
  if grep -rnE 'Atomic|Mutex|RwLock|fetch_(or|and|add|sub)|compare_exchange|CachePadded' \
      crates/nvm/src crates/vm/src; then
    echo "one driver: ido-nvm and ido-vm hold no atomic, lock or padding"; return 1
  fi
  # Tier 1 runs a pick, not a step: each instruction's semantics is the one
  # free function `exec` (no per-step `Vm` method re-indexing the thread),
  # and the running frame is a field of the thread, not the top of a stack.
  if grep -rnE 'fn exec_inst|fn advance\(&mut self|frames\.last' crates/vm/src; then
    echo "tier 1 has one definition per instruction and the running frame is a field"; return 1
  fi
  # Register tracking is iDO's (scheme/resumption.rs), and a latency charge
  # only advances the simulated clock.
  if grep -nE 'dirty_regs|written_regs|read_before_write|stores_since_boundary' \
      crates/vm/src/exec.rs crates/vm/src/tier2.rs; then
    echo "the engine keeps register tracking: it is iDO's, in IdoThread"; return 1
  fi
  if grep -rnE 'EmulationMode|SpinRealTime|fn realize' crates; then
    echo "a latency charge spins in real time: the model is simulated only"; return 1
  fi
  if grep -rn 'ThreadCtx' crates/vm/src/scheme; then
    echo "a scheme entry point takes the thread: it borrows its scheme state and handle"; return 1
  fi
  if grep -rnE 'mem::replace\(&mut [a-z_.]*scheme|mem::take\(&mut th\.frame\.regs|scheme_state_moves_inline' \
      crates/vm/src; then
    echo "a scheme state or register file is moved out of its thread: borrow it in place"; return 1
  fi
  # Foreign calls stay in one place: the pool's allocation and its one
  # `madvise` are the workspace's only `unsafe` and its only `extern "C"`
  # (test-only allocator counters under crates/*/tests stay allowed).
  if grep -rnE 'extern "C"|\bunsafe\b' crates/*/src | grep -v '^crates/nvm/src/pool.rs:'; then
    echo "unsafe code or a foreign call outside crates/nvm/src/pool.rs"; return 1
  fi
  if (( $(ls crates | wc -l) != 14 )); then
    echo "the workspace has $(ls crates | wc -l) crates, not 14"; return 1
  fi
  cargo test -q --release -p ido-workloads --test decoded_golden
}
timed "scheme seams" scheme_seams

echo "== benchmark determinism: sim_fingerprint of every workload at seeds 1 and 7 =="
# The repo benchmark, built from this tree into target/benchmark, one second
# per run: the simulated side of each workload must be the committed value in
# scripts/sim_fingerprints.tsv to the bit (a PR that moves one on purpose
# re-blesses that file). Host clocks stay advisory. run.sh builds without
# --locked and rewrites the stale benchmark/Cargo.lock; restoring it keeps
# the tree clean (refreshing it is a benchmark PR's job).
benchmark_determinism() {
  local workload seed want last got
  while IFS=$'\t' read -r workload seed want; do
    last=$(CARGO_TARGET_DIR=target/benchmark bash benchmark/run.sh \
      --workload "$workload" --seed "$seed" --seconds 1 --trace 0 2> /dev/null | tail -n 1)
    if [[ $last != *'"correct": true'* || $last != *'"failed": 0,'* ]]; then
      echo "$workload seed $seed: not correct, or operations failed: $last"; return 1
    fi
    got=$(grep -o '"sim_fingerprint": *"[^"]*"' "benchmark/out/$workload.json" | grep -o '0x[0-9a-f]*')
    if [[ $got != "$want" ]]; then
      echo "$workload seed $seed: sim_fingerprint $got, committed $want"; return 1
    fi
    echo "$workload seed $seed: $got"
  done < scripts/sim_fingerprints.tsv
  git checkout -- benchmark/Cargo.lock
}
timed "benchmark determinism" benchmark_determinism

echo "== code placement: the benchmark's hot functions start on a 64-byte boundary =="
# .cargo/config.toml aligns every function to 64 bytes, so a change in one
# crate cannot move another's hot loop across cache lines and shift host
# timings with byte-identical code. A RUSTFLAGS environment variable
# replaces the config's flags, which this catches too. `Vm::run_pick` is
# inlined into `Vm::run_steps` in the release build and is checked if it
# has a symbol of its own.
code_placement() {
  local syms addr name
  syms=$(nm -C target/benchmark/release/ido-benchmark \
    | grep -E ' [tT] ido_(vm::exec::(Vm::run_steps|Vm::run_pick|exec_cold)|nvm::pool::PmemHandle::sfence)$')
  for name in Vm::run_steps exec_cold PmemHandle::sfence; do
    if ! grep -q "::$name\$" <<< "$syms"; then
      echo "no symbol for $name in the benchmark binary"; return 1
    fi
  done
  while read -r addr _ name; do
    if (( 16#$addr % 64 )); then
      echo "$name starts at 0x$addr, not on a 64-byte boundary"; return 1
    fi
    echo "$name: 0x$addr"
  done <<< "$syms"
}
timed "code placement" code_placement

echo "== scheduler: tree vs scan model test, scaling, sched_equivalence to 129 threads =="
# Optimized: the 128-129-thread equivalence cases are the slow part of the
# unoptimized workspace run above.
timed "scheduler" cargo test -q --release -p ido-vm --lib sched

echo "== static atomicity lint + differential smoke (verify_report) =="
# Lints every standard workload under every scheme and cross-checks the
# static verdicts against the crash oracle; any violation or
# static/dynamic disagreement makes the binary assert and fail CI.
timed "verify_report" env IDO_BENCH_QUICK=1 cargo run -q --release -p ido-bench --bin verify_report

echo "== crash-oracle smoke sweep + program sharing + one crash-state track + memcached-like store at 512 ops (iDO, Atlas) =="
# The sharing tests pin that a crash state neither clones nor decodes the
# program (`Program`'s value semantics, VMs of one program holding one
# decoded form, an exploration leaving it as it found it), in the build the
# oracle is timed in; the table's us/state and setup columns put the
# per-state path and its fixed cost in this log (host numbers: read them
# against the previous run's, they gate nothing). The kv sweep is the
# application-scale gate: every persist boundary of a 512-operation run,
# bounded lost-line cover, affordable because the oracle steps one VM
# forward per worker and forks states from it. Release-only (the test is
# ignored in unoptimized builds). A crash state is one value: a crash during
# recovery goes through the same check, shrinker, `Counterexample` and
# `Exploration` as an application crash, so no second track may come back,
# and both sweeps are held to the from-scratch reference (fork_equivalence)
# and their acceptance sweep (recovery_crash) in the timed build too. A
# crash image is recovered once: the --lib run includes the memo re-check
# (every_state_the_memo_skipped_checks_ok_from_scratch), par_determinism
# holds the distinct-image count to any job count, and the image key stays
# off the pool's store, write-back and fence path, so no VM workload pays
# for it. The table's `distinct` column is the count of images recovered.
oracle_stage() {
  if grep -rnE 'RecoveryCounterexample|RecoveryExploration|check_recovery_crash_state|verify_interrupted_recovery' \
      crates src tests; then
    echo "a second crash-state track: a crash during recovery is a CrashState"; return 1
  fi
  # One reproducer: a counterexample is a scenario file `ido crashtest`
  # replays, not a recipe to follow, a Rust-only replay or a CLI flag.
  if grep -rnE 'replay_recipe|fn reproduce\(|inject-skip-store-flush' crates src tests README.md; then
    echo "a second replay path: a failure is a scenario file"; return 1
  fi
  local f body
  for f in write_u64 clwb sfence writeback_line; do
    body=$(sed -n "/^    \(pub \)\?fn $f(/,/^    }$/p" crates/nvm/src/pool.rs)
    [[ -n $body ]] || { echo "no fn $f in crates/nvm/src/pool.rs"; return 1; }
    if grep -nE '_key|line_words' <<<"$body"; then
      echo "the image key is computed on the pool's $f path"; return 1
    fi
  done
  cargo test -q --release -p ido-ir --lib func::tests
  cargo test -q --release -p ido-vm --test crash_recovery share_one_decoded_form
  cargo test -q --release -p ido-crashtest --lib
  cargo test -q --release -p ido-crashtest --test fork_equivalence --test recovery_crash \
    --test par_determinism
  # The regression corpus regenerates byte for byte at either job count.
  IDO_JOBS=1 cargo test -q --release --test regress
  IDO_JOBS=2 cargo test -q --release --test regress
  local table
  table=$(IDO_ORACLE_SMOKE=1 cargo run -q --release -p ido-bench --bin crash_oracle)
  echo "$table"
  echo "$table" | grep -q 'us/state' \
    || { echo "crash_oracle's table lost its us/state column"; return 1; }
  echo "$table" | grep -q ' distinct ' \
    || { echo "crash_oracle's table lost its distinct column"; return 1; }
  cargo test -q --release -p ido-crashtest --test kv_sweep -- --nocapture
}
timed "crash oracle" oracle_stage

echo "== trace smoke: quick trace_report + JSON/event-kind self-check =="
IDO_BENCH_QUICK=1 IDO_TRACE_SMOKE=1 cargo run -q --release -p ido-bench --bin trace_report

echo "== trace determinism: IDO_JOBS=2 must match IDO_JOBS=1 byte-for-byte =="
mkdir -p target/tmp
IDO_BENCH_QUICK=1 IDO_JOBS=1 cargo run -q --release -p ido-bench --bin trace_report > /dev/null
cp target/figures/trace_hash-map.trace.json target/tmp/trace_jobs1.json
IDO_BENCH_QUICK=1 IDO_JOBS=2 cargo run -q --release -p ido-bench --bin trace_report > /dev/null
cmp target/tmp/trace_jobs1.json target/figures/trace_hash-map.trace.json \
  || { echo "IDO_JOBS=2 changed the emitted trace"; exit 1; }
rm -f target/tmp/trace_jobs1.json

echo "== service bench smoke (crash under load, online-recovery windows) =="
# The binary itself asserts the crash lands mid-traffic for every durable
# scheme, re-verifies the recovered table, and validates every emitted
# JSON artifact before writing it. BENCH_service.json holds only
# simulated quantities, so it must be byte-identical for any worker count.
IDO_BENCH_QUICK=1 IDO_JOBS=1 cargo run -q --release -p ido-bench --bin service_bench
cp target/figures/BENCH_service.json target/figures/BENCH_service.jobs1.json
IDO_BENCH_QUICK=1 IDO_JOBS=2 cargo run -q --release -p ido-bench --bin service_bench
cmp target/figures/BENCH_service.jobs1.json target/figures/BENCH_service.json \
  || { echo "IDO_JOBS=2 changed service bench results"; exit 1; }

echo "== metrics-off overhead guard (median of 9 paired runs, wall ns/step) =="
# Disabled metrics must stay one untaken branch per marker: the guard
# compares per-step wall cost of a marked vs unmarked hot loop within
# back-to-back pairs and fails CI if the median per-pair overhead grows
# past the tolerance.
IDO_BENCH_QUICK=1 cargo run -q --release -p ido-bench --bin metrics_guard

echo "== lock-free contention smoke (quick mode, window <= eager clwb gate) =="
# The binary itself asserts every point completes and that window flushing
# never issues more clwbs than eager flushing. BENCH_lockfree.json holds
# only simulated quantities: byte-identical for any worker count.
IDO_BENCH_QUICK=1 IDO_JOBS=1 cargo run -q --release -p ido-bench --bin lockfree_bench
cp target/figures/BENCH_lockfree.json target/figures/BENCH_lockfree.jobs1.json
IDO_BENCH_QUICK=1 IDO_JOBS=2 cargo run -q --release -p ido-bench --bin lockfree_bench
cmp target/figures/BENCH_lockfree.jobs1.json target/figures/BENCH_lockfree.json \
  || { echo "IDO_JOBS=2 changed lock-free bench results"; exit 1; }

echo "== allocator scaling smoke (quick mode, asserts >= 4x at 64T) =="
# BENCH_alloc.json holds only simulated quantities: byte-identical for
# any worker count.
IDO_BENCH_QUICK=1 IDO_JOBS=1 cargo run -q --release -p ido-bench --bin alloc_bench
cp target/figures/BENCH_alloc.json target/figures/BENCH_alloc.jobs1.json
IDO_BENCH_QUICK=1 IDO_JOBS=2 cargo run -q --release -p ido-bench --bin alloc_bench
cmp target/figures/BENCH_alloc.jobs1.json target/figures/BENCH_alloc.json \
  || { echo "IDO_JOBS=2 changed allocator bench results"; exit 1; }

echo "== table/report smoke: every remaining paper binary at IDO_BENCH_OPS=200 =="
for b in fig8_regions table1_recovery table2_properties ablation; do
  IDO_BENCH_OPS=200 cargo run -q --release -p ido-bench --bin "$b" > /dev/null
done

echo "== figure regeneration: ido sweep on every corpus/figures/*.ido at its own size =="
# Figs. 5, 6, 7 and 9 are scenario files: `ido sweep` sizes each point's
# pool from its own threads and ops, and writes one CSV per file. This is
# the command that regenerates them. The output is the same bytes at any
# job count: one file with a `threads` list and one with a `delay` list are
# compared at --jobs 1, --jobs 2 and IDO_JOBS=2. The four figure binaries
# and the curve helpers they used stay gone.
figure_regeneration() {
  local f name
  if ls crates/bench/src/bin | grep -E '^(fig5_memcached|fig6_redis|fig7_micro|fig9_latency)\.rs$'; then
    echo "a figure binary is back: the figure is a scenario file under corpus/figures/"; return 1
  fi
  if grep -rnwE 'Curve|sweep_threads(_jobs)?|sweep_stats(_jobs)?|curves_from_stats|format_curves|curves_to_rows|curve_for|point_at|THREAD_SWEEP' \
      crates src tests examples \
    || grep -nE 'fn (peak|run_point|with_nvm_delay)\b' crates/bench/src/lib.rs; then
    echo "a curve helper is back: ido sweep and ido_workloads::sweep are the one sweep path"; return 1
  fi
  mkdir -p target/figures target/tmp
  for f in corpus/figures/*.ido; do
    name=$(basename "$f" .ido)
    ./target/release/ido sweep "$f" > "target/figures/$name.csv"
  done
  for f in corpus/figures/fig7_hash-map.ido corpus/figures/fig9_latency_memcached.ido; do
    name=$(basename "$f" .ido)
    ./target/release/ido sweep "$f" --jobs 1 > "target/tmp/$name.jobs1.csv"
    ./target/release/ido sweep "$f" --jobs 2 > "target/tmp/$name.jobs2.csv"
    IDO_JOBS=2 ./target/release/ido sweep "$f" > "target/tmp/$name.env2.csv"
    cmp "target/tmp/$name.jobs1.csv" "target/tmp/$name.jobs2.csv" \
      && cmp "target/tmp/$name.jobs1.csv" "target/tmp/$name.env2.csv" \
      || { echo "the job count changed ido sweep $f"; return 1; }
    rm -f target/tmp/"$name".{jobs1,jobs2,env2}.csv
  done
}
timed "figure regeneration" figure_regeneration

echo "== ido verify over the scenario corpus (static atomicity, all schemes) =="
# Every checked-in scenario must verify clean under every scheme it names.
for f in corpus/*.ido; do
  cargo run -q --release -p ido-repro --bin ido -- verify "$f"
done

echo "== ido crashtest over the lock-free corpus file: both schemes explored =="
cargo run -q --release -p ido-repro --bin ido -- crashtest corpus/lf_list.ido \
  | grep -q '2 scheme(s) explored, 0 counterexample(s)' \
  || { echo "ido crashtest did not explore the lock-free pair"; exit 1; }

echo "== ido crashtest: the corpus is clean, and a failure replays from the file it writes =="
# crashtest explores at the library oracle's default configuration with the
# scenario's threads, ops, seed, tier and bug lines applied. The queue is the
# corpus structure whose invariants see iDO's skipped store flush (the
# stack's do not, at any seed tried); the printed `replay:` line must fail
# the same way.
replay_stage() {
  local f out replay
  for f in corpus/*.ido; do
    ./target/release/ido crashtest "$f" | grep -q 'explored, 0 counterexample(s)' \
      || { echo "ido crashtest $f found a counterexample"; return 1; }
  done
  rm -rf target/replay
  mkdir -p target/tmp
  sed 's/^  ops 4$/  ops 4\n  bug ido_bug_skip_store_flush/' corpus/queue.ido > target/tmp/queue_bug.ido
  if out=$(./target/release/ido crashtest target/tmp/queue_bug.ido); then
    echo "ido crashtest missed the injected bug:"; echo "$out"; return 1
  fi
  echo "$out"
  replay=$(echo "$out" | sed -n 's/^replay: ido crashtest //p')
  [[ -f $replay ]] || { echo "no reproducer written"; return 1; }
  local want got
  want=$(sed -n 's/^# failure: //p' "$replay")
  echo "$out" | grep -qF "): $want)" || { echo "the reproducer records another failure"; return 1; }
  if got=$(./target/release/ido crashtest "$replay"); then
    echo "the reproducer replays clean:"; echo "$got"; return 1
  fi
  echo "$got" | grep -qF ": FAILED: $want" \
    || { echo "the reproducer fails differently:"; echo "$got"; return 1; }
  rm -rf target/replay target/tmp/queue_bug.ido
}
timed "crashtest replay" replay_stage

echo "== ido run --compare-builder: corpus runs byte-identical to the builder =="
# The CLI re-runs each scheme from the native Rust-builder program and
# requires identical steps, simulated clocks, stats, and pool-image hash.
for f in corpus/*.ido; do
  cargo run -q --release -p ido-repro --bin ido -- run "$f" --compare-builder > /dev/null
done

echo "== ido run determinism: --jobs 2 must match --jobs 1 byte-for-byte =="
cargo run -q --release -p ido-repro --bin ido -- run corpus/map.ido --jobs 1 \
  > target/tmp/ido_run_jobs1.json
cargo run -q --release -p ido-repro --bin ido -- run corpus/map.ido --jobs 2 \
  > target/tmp/ido_run_jobs2.json
cmp target/tmp/ido_run_jobs1.json target/tmp/ido_run_jobs2.json \
  || { echo "--jobs 2 changed ido run output"; exit 1; }
IDO_JOBS=2 cargo run -q --release -p ido-repro --bin ido -- run corpus/map.ido \
  > target/tmp/ido_run_envjobs.json
cmp target/tmp/ido_run_jobs1.json target/tmp/ido_run_envjobs.json \
  || { echo "IDO_JOBS=2 changed ido run output"; exit 1; }
rm -f target/tmp/ido_run_jobs1.json target/tmp/ido_run_jobs2.json target/tmp/ido_run_envjobs.json

echo "CI OK"
