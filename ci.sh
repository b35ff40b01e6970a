#!/bin/sh
# Local mirror of .github/workflows/ci.yml — run before pushing.
set -eu

cargo build --release
cargo test -q
# The root `cargo test` covers only the root package; this runs every
# crate's unit and integration tests (determinism, properties, serve).
cargo test --workspace -q
cargo fmt --check
cargo clippy --workspace --all-targets -- -D warnings

# The benchmark package (perf/) is a workspace of its own, so the root
# `cargo test` never compiles it — yet it pins the JSON compatibility paths
# (`spacea_harness::json`, `spacea_obs::json::Value`). Test and smoke it.
cargo test --offline --manifest-path perf/Cargo.toml
cargo run --offline --release --manifest-path perf/Cargo.toml -- --smoke

# Static analysis: the workspace must be clean modulo the committed baseline,
# and the baseline itself may only shrink (the ratchet). The second check is
# skipped on the first commit that introduces the baseline.
cargo run --release -p spacea-lint -- --check --baseline lint-baseline.json
if git cat-file -e HEAD~1:lint-baseline.json 2>/dev/null; then
  git show HEAD~1:lint-baseline.json > target/lint-baseline-prev.json
  cargo run --release -p spacea-lint -- \
    --compare-baselines target/lint-baseline-prev.json lint-baseline.json
fi

# PDES call-graph artifacts: both exports must be well-formed, and the
# event-loop path must stay traceable (a --why chain ending at its root).
cargo run --release -p spacea-lint -- --graph dot > target/lint-graph.dot
grep -q '^digraph spacea_calls' target/lint-graph.dot
grep -q '}' target/lint-graph.dot
cargo run --release -p spacea-lint -- --graph json > target/lint-graph.json
grep -q '"schema": "spacea-lint-graph-v1"' target/lint-graph.json
cargo run --release -p spacea-lint -- --why Machine::run | grep -q "PDES root"
cargo run --release -p spacea-lint -- --why LoadQueue::push_forced_at \
  | grep -q "reachable: Machine::run -> Sim::run -> Sim::pe_step -> LoadQueue::push_forced_at"

# Ratchet regression guard: --compare-baselines must exit non-zero when the
# baseline grows (a zero exit here would mean the ratchet is toothless).
printf '%s\n' \
  '{' \
  '  "schema": "spacea-lint-baseline-v1",' \
  '  "total": 1,' \
  '  "entries": [' \
  '    {"rule": "D1", "file": "crates/sim/src/engine.rs", "count": 1}' \
  '  ]' \
  '}' > target/lint-baseline-grown.json
if cargo run --release -p spacea-lint -- \
    --compare-baselines lint-baseline.json target/lint-baseline-grown.json; then
  echo "ci.sh: --compare-baselines accepted a grown baseline" >&2
  exit 1
fi
cargo run --release -p spacea-bench --bin all_experiments -- --quick --jobs 4 > /dev/null

# Experiment entrypoint: `experiment ID` for every registry id, each output
# followed by one blank line, must concatenate to exactly what
# all_experiments prints over the same cache; an unknown id must fail.
EXP_CACHE=target/spacea-cache-experiment
rm -rf "$EXP_CACHE"
cargo run --release -p spacea-bench --bin all_experiments -- --quick --csv \
  --cache-dir "$EXP_CACHE" > target/experiments-all.csv
: > target/experiments-each.csv
for id in table1 fig2 fig5 table2 fig6 fig7 fig8 fig9 fig10 table3 graphs formats; do
  cargo run --release -p spacea-bench --bin experiment -- "$id" --quick --csv \
    --cache-dir "$EXP_CACHE" >> target/experiments-each.csv
  echo >> target/experiments-each.csv
done
cmp target/experiments-each.csv target/experiments-all.csv
if cargo run --release -p spacea-bench --bin experiment -- nosuch; then
  echo "ci.sh: experiment accepted an unknown id" >&2
  exit 1
fi

# Sweep smoke test: a tiny 2-axis grid run whole and as 2 shards running
# concurrently over one cache must merge byte-identically (a failing shard
# fails the check), and GC must respect its byte budget.
SWEEP_CACHE=target/spacea-cache-ci
SWEEP_ARGS="--quick --ids 1,2 --scales 256,512 --csv --jobs 2 --cache-dir $SWEEP_CACHE"
rm -rf "$SWEEP_CACHE"
cargo run --release -p spacea-bench --bin sweep -- $SWEEP_ARGS > target/sweep-full.csv
rm -rf "$SWEEP_CACHE"
cargo run --release -p spacea-bench --bin sweep -- $SWEEP_ARGS --shard 0/2 > target/sweep-s0.csv &
SHARD0_PID=$!
cargo run --release -p spacea-bench --bin sweep -- $SWEEP_ARGS --shard 1/2 > target/sweep-s1.csv
wait $SHARD0_PID
head -n 1 target/sweep-s0.csv > target/sweep-merged.csv
tail -n +2 -q target/sweep-s0.csv target/sweep-s1.csv >> target/sweep-merged.csv
cmp target/sweep-merged.csv target/sweep-full.csv
cargo run --release -p spacea-bench --bin sweep -- --cache-dir "$SWEEP_CACHE" --gc --gc-max-kb 2
# The <16-hex>.json result files gc kept fit its 2 KiB budget.
GC_KEPT_BYTES=$(ls "$SWEEP_CACHE" | grep -E '^[0-9a-f]{16}\.json$' | sed "s|^|$SWEEP_CACHE/|" | xargs cat | wc -c)
test "$GC_KEPT_BYTES" -le 2048
cargo run --release -p spacea-bench --bin sweep -- $SWEEP_ARGS > target/sweep-regc.csv
cmp target/sweep-regc.csv target/sweep-full.csv

# Scenario-matrix smoke test: a tiny backend x format x partitioning grid
# (every cell is bitwise-verified against the CSR reference inside the
# harness) run whole and as 2 shards sharing a cache must merge
# byte-identically, with no failed cells.
SCN_CACHE=target/spacea-cache-scenario
SCN_ARGS="--quick --ids 1 --scales 256 --backend spacea,gpu,hbm --format csr,sell --partition row,nnz --csv --jobs 2 --cache-dir $SCN_CACHE"
rm -rf "$SCN_CACHE"
cargo run --release -p spacea-bench --bin sweep -- $SCN_ARGS > target/scn-full.csv
rm -rf "$SCN_CACHE"
cargo run --release -p spacea-bench --bin sweep -- $SCN_ARGS --shard 0/2 > target/scn-s0.csv
cargo run --release -p spacea-bench --bin sweep -- $SCN_ARGS --shard 1/2 > target/scn-s1.csv
head -n 1 target/scn-s0.csv > target/scn-merged.csv
tail -n +2 -q target/scn-s0.csv target/scn-s1.csv >> target/scn-merged.csv
cmp target/scn-merged.csv target/scn-full.csv
test "$(wc -l < target/scn-full.csv)" -eq 14  # header + 1 sim point + 12 cells
! grep -qE "failed|timed-out" target/scn-full.csv

# Simulation memo: the full backend x format x partitioning grid over two
# matrices renders byte-identically on 1 and 4 workers with no failed cell,
# and each run simulates only the 2 distinct runs per matrix (one for the
# plain, CSR, COO and SELL mapping, one for BCSR's) and reuses the other 14.
MEMO_ARGS="--quick --ids 1,13 --scales 256 --backend all --format all --partition all --csv"
for j in 1 4; do
  MEMO_CACHE=target/spacea-cache-memo-$j
  rm -rf "$MEMO_CACHE"
  cargo run --release -p spacea-bench --bin sweep -- $MEMO_ARGS --jobs $j \
    --cache-dir "$MEMO_CACHE" > target/sweep-memo-$j.csv
  grep -q '"simulations":{"run":4,"reused":14}' "$MEMO_CACHE/last-run.json"
done
cmp target/sweep-memo-1.csv target/sweep-memo-4.csv
! grep -qE "failed|timed-out" target/sweep-memo-1.csv

# Fault-injection smoke test: a sweep with a deliberately stalled vault and a
# panicking job must still exit 0, render every row, and record the failures
# (with the watchdog's diagnosis naming the vault) in the manifest.
FAULT_CACHE=target/spacea-cache-faults
rm -rf "$FAULT_CACHE"
cargo run --release -p spacea-bench --bin sweep -- --quick --ids 1,2,3 --csv --jobs 2 \
  --cache-dir "$FAULT_CACHE" --faults "0:stall-vault=0@100;1:panic" > target/sweep-faults.csv
grep -q "timed-out" target/sweep-faults.csv
grep -q "failed" target/sweep-faults.csv
grep -q '"status":"timed-out"' "$FAULT_CACHE/last-run.json"
grep -q "vault 0" "$FAULT_CACHE/last-run.json"
# Each job runs once, failed ones included: three jobs, three simulations.
grep -q '"simulations":{"run":3,"reused":0}' "$FAULT_CACHE/last-run.json"

# Timeline smoke test: a sweep with one stalled and one healthy job must
# export a Perfetto-loadable timeline for the healthy job, and the stalled
# vault's diagnosis must carry its occupancy time series.
TL_CACHE=target/spacea-cache-timeline
rm -rf "$TL_CACHE"
cargo run --release -p spacea-bench --bin sweep -- --quick --ids 1,2 --csv --jobs 2 \
  --cache-dir "$TL_CACHE" --timeline --faults "1:stall-vault=0@100" > target/sweep-timeline.csv
grep -q "timed-out" target/sweep-timeline.csv
for f in "$TL_CACHE"/timelines/*.json; do
  cargo run --release -p spacea-bench --bin timeline -- --validate "$f"
done
grep -q "occupancy history" "$TL_CACHE/last-run.json"
grep -q "vault 0" "$TL_CACHE/last-run.json"

# Service smoke test: a daemon over a fresh cache dir serves 8 concurrent
# mixed-matrix requests whose responses must bitwise-match the offline
# reference SpMV; after a restart over the same cache dir its manifest must
# show zero Phase I/II mapping computations (the warm-mapping guarantee).
SERVE_CACHE=target/spacea-cache-serve
rm -rf "$SERVE_CACHE"
cargo run --release -p spacea-bench --bin serve -- start --quick --cache-dir "$SERVE_CACHE" &
SERVE_PID=$!
for _ in $(seq 1 150); do [ -f "$SERVE_CACHE/serve.port" ] && break; sleep 0.1; done
cargo run --release -p spacea-bench --bin serve -- submit --cache-dir "$SERVE_CACHE" \
  --matrix 1/256,2/256 --seeds 0,1,2,3,4,5,6,7 --check
cargo run --release -p spacea-bench --bin serve -- stat --cache-dir "$SERVE_CACHE" \
  | grep -q '"requests":8'
cargo run --release -p spacea-bench --bin serve -- shutdown --cache-dir "$SERVE_CACHE"
wait $SERVE_PID
grep -q '"computed":2' "$SERVE_CACHE/serve-manifest.json"
cargo run --release -p spacea-bench --bin serve -- start --quick --cache-dir "$SERVE_CACHE" &
SERVE_PID=$!
for _ in $(seq 1 150); do [ -f "$SERVE_CACHE/serve.port" ] && break; sleep 0.1; done
cargo run --release -p spacea-bench --bin serve -- submit --cache-dir "$SERVE_CACHE" \
  --matrix 1/256,2/256 --seeds 8,9,10,11 --check
# Journal compaction: 12 acked requests are on disk across both lives;
# compacting to the newest file keeps proof bounded (crash-safe watermark).
cargo run --release -p spacea-bench --bin serve -- stat --cache-dir "$SERVE_CACHE" \
  | grep -q '"journal_records":12'
cargo run --release -p spacea-bench --bin serve -- compact --retain 1 --cache-dir "$SERVE_CACHE"
cargo run --release -p spacea-bench --bin serve -- stat --cache-dir "$SERVE_CACHE" \
  | grep -q '"journal_files":1'
cargo run --release -p spacea-bench --bin serve -- shutdown --cache-dir "$SERVE_CACHE"
wait $SERVE_PID
grep -q '"computed":0' "$SERVE_CACHE/serve-manifest.json"

# Chaos soak: 8 seeded service-layer fault plans against live daemons. The
# invariant is absolute — every acknowledged response bitwise-matches the
# offline SpMV and is journaled, every rejection carries an explicit wire
# code, and a restart over the (possibly corrupted) cache heals and replays
# every journaled request correctly. A failing seed replays with --seed K.
cargo run --release -p spacea-bench --bin serve_chaos -- --seeds 8

# Service throughput ratchet: the deterministic cycles-per-batch snapshot
# must match HEAD exactly (refresh with `serve_bench --write` when the
# simulator legitimately changes).
cargo run --release -p spacea-bench --bin serve_bench -- --check BENCH_serve.json

# Event-engine ratchet: deterministic workload checksums must match the
# committed snapshot, and the calendar queue must stay >=1.5x the reference
# BinaryHeap engine on events/sec (refresh with `engine_bench --write`).
cargo run --release -p spacea-bench --bin engine_bench -- --check BENCH_engine.json

echo "ci.sh: all checks passed"
