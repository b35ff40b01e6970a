#!/bin/sh
# The CI: .github/workflows/ci.yml only sets up the toolchain and runs this
# script, so every check is defined here, once. Run it before pushing.
set -eu

cargo build --release
cargo test -q
# The root `cargo test` covers only the root package; this runs every
# crate's unit and integration tests (determinism, properties, serve).
cargo test --workspace -q
# The simulator's slab index arithmetic, also with debug assertions and
# overflow checks off.
cargo test --release -q -p spacea-sim -p spacea-arch
cargo fmt --check
cargo clippy --workspace --all-targets -- -D warnings
# The API docs build with every warning an error, so a doc link to a
# deleted or out-of-scope item fails here.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# The benchmark package (perf/) is a workspace of its own, so the root
# `cargo test` never compiles it — yet it pins the JSON compatibility paths
# (`spacea_harness::json`, `spacea_obs::json::Value`). Test and smoke it.
cargo test --offline --manifest-path perf/Cargo.toml
cargo run --offline --release --manifest-path perf/Cargo.toml -- --smoke

# Static analysis: every violation fails; a deliberate site carries
# `// lint:allow(RULE) reason` (crates/lint/tests/check_cli.rs pins the exit).
cargo run --release -p spacea-lint -- --check

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
# An observed run's gauges are read by one plain method, so the graph shows
# the chain that really runs (a gauge read inside a stored closure would
# show the function that built the closure instead).
cargo run --release -p spacea-lint -- --why LoadQueue::oldest_age \
  | grep -q "reachable: Machine::run -> Sim::sample_gauges -> LoadQueue::oldest_age"

# Warm pass: all_experiments cold into a fresh cache, then again over it.
# The two stdouts must be byte-identical, and the warm run must answer
# every job from disk: no cache miss, no simulation run or reused.
WARM_CACHE=target/spacea-cache-warm
rm -rf "$WARM_CACHE"
cargo run --release -p spacea-bench --bin all_experiments -- --quick --jobs 4 \
  --cache-dir "$WARM_CACHE" > target/experiments-cold.txt
cargo run --release -p spacea-bench --bin all_experiments -- --quick --jobs 4 \
  --cache-dir "$WARM_CACHE" > target/experiments-warm.txt
cmp target/experiments-cold.txt target/experiments-warm.txt
grep -q '"misses":0,' "$WARM_CACHE/last-run.json"
grep -q '"simulations":{"run":0,"reused":0}' "$WARM_CACHE/last-run.json"

# The studies (`studies()` in spacea-core's experiments module) and the
# tool binaries nothing else runs: each must exit 0 and print something at
# --quick.
SMOKE_CACHE=target/spacea-cache-smoke
rm -rf "$SMOKE_CACHE"
for id in ablations bandwidth_table hbm_comparison ordering_study utilization; do
  cargo run --release -p spacea-bench --bin experiment -- "$id" --quick \
    --cache-dir "$SMOKE_CACHE" > "target/smoke-$id.txt"
  test -s "target/smoke-$id.txt"
done
cargo run --release -p spacea-bench --bin run_mtx -- crates/matrix/tests/fixtures/bar5.mtx \
  --quick --cache-dir "$SMOKE_CACHE" > target/smoke-run_mtx.txt
test -s target/smoke-run_mtx.txt
# The timeline binary's run mode: it observes one simulation, prints its
# series summary and then its opening trace records, and writes a trace
# that its own --validate accepts.
cargo run --release -p spacea-bench --bin timeline -- --quick --id 1 \
  --out target/timeline-run.json --cache-dir "$SMOKE_CACHE" > target/smoke-timeline.txt
test -s target/smoke-timeline.txt
grep -q '] pe 0:' target/smoke-timeline.txt
cargo run --release -p spacea-bench --bin timeline -- --validate target/timeline-run.json

# The six examples: `cargo test` only compiles them, so run each once; a
# non-zero exit fails the script.
for ex in quickstart mapping_comparison pagerank sensitivity jacobi_solver offload_amortization; do
  cargo run --release --example "$ex" > "target/example-$ex.txt"
done
# offload_amortization prints host-measured times on stderr only, so its
# stdout must repeat byte for byte.
cargo run --release --example offload_amortization > target/example-offload_amortization-2.txt
cmp target/example-offload_amortization.txt target/example-offload_amortization-2.txt

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

# EXPERIMENTS.md is generated: regenerated at full scale in a directory of
# its own, over a fresh cache, it must equal the committed file byte for
# byte. (The slowest step: 33 s to 158 s on 2-vCPU hosts.)
EXP_MD_DIR=target/experiments-md
rm -rf "$EXP_MD_DIR"
mkdir -p "$EXP_MD_DIR"
(cd "$EXP_MD_DIR" && cargo run --release -p spacea-bench --bin write_experiments_md -- \
  --cache-dir cache)
cmp "$EXP_MD_DIR/EXPERIMENTS.md" EXPERIMENTS.md

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
# `! grep` would not stop a `set -e` script, hence the explicit exits.
if grep -qE "failed|timed-out" target/scn-full.csv; then
  echo "ci.sh: a scenario cell failed" >&2
  exit 1
fi

# Simulation memo: the full backend x format x partitioning grid over two
# matrices renders byte-identically on 1 and 4 workers with no failed cell,
# and each run simulates only the 2 distinct runs per matrix (one for the
# plain, CSR, COO and SELL mapping, one for BCSR's) and reuses the other 14.
# Mappings are stored by sparsity pattern, so Phase I/II also runs twice per
# matrix (the logical pattern and BCSR's footprint) and the CSR, COO and
# SELL cells read the logical pattern's artifact back from disk. On 4
# workers two cells can both miss before either writes, so only the total
# of 10 is fixed there.
MEMO_ARGS="--quick --ids 1,13 --scales 256 --backend all --format all --partition all --csv"
for j in 1 4; do
  MEMO_CACHE=target/spacea-cache-memo-$j
  rm -rf "$MEMO_CACHE"
  cargo run --release -p spacea-bench --bin sweep -- $MEMO_ARGS --jobs $j \
    --cache-dir "$MEMO_CACHE" > target/sweep-memo-$j.csv
  grep -q '"simulations":{"run":4,"reused":14}' "$MEMO_CACHE/last-run.json"
  MAPS=$(grep -o '"mappings":{"computed":[0-9]*,"disk_hits":[0-9]*' "$MEMO_CACHE/last-run.json" \
    | tr -c '0-9' ' ')
  set -- $MAPS
  if [ "$#" -ne 2 ] || [ "$(($1 + $2))" -ne 10 ]; then
    echo "ci.sh: the memo sweep on $j workers obtained mappings $MAPS, not 10 in all" >&2
    exit 1
  fi
  if [ "$j" -eq 1 ]; then
    grep -q '"mappings":{"computed":4,"disk_hits":6' "$MEMO_CACHE/last-run.json"
  fi
done
cmp target/sweep-memo-1.csv target/sweep-memo-4.csv
if grep -qE "failed|timed-out" target/sweep-memo-1.csv; then
  echo "ci.sh: a memo sweep cell failed" >&2
  exit 1
fi

# Machine axes: the mapping, named-variant, cube-count, CAM-set and GPU axes
# build their machines through HwConfig::by_name and the axis constructors.
# The grid run whole and as 2 shards, each over a fresh cache, must merge
# byte-identically, with no failed row.
AXES_CACHE=target/spacea-cache-axes
AXES_ARGS="--quick --ids 1 --kinds naive,proposed --hw tiny,scaled --cubes-axis 1,2 --l1-sets 16,32 --l2-sets 1024 --gpu --csv --jobs 2 --cache-dir $AXES_CACHE"
rm -rf "$AXES_CACHE"
cargo run --release -p spacea-bench --bin sweep -- $AXES_ARGS > target/axes-full.csv
rm -rf "$AXES_CACHE"
cargo run --release -p spacea-bench --bin sweep -- $AXES_ARGS --shard 0/2 > target/axes-s0.csv
cargo run --release -p spacea-bench --bin sweep -- $AXES_ARGS --shard 1/2 > target/axes-s1.csv
head -n 1 target/axes-s0.csv > target/axes-merged.csv
tail -n +2 -q target/axes-s0.csv target/axes-s1.csv >> target/axes-merged.csv
cmp target/axes-merged.csv target/axes-full.csv
test "$(wc -l < target/axes-full.csv)" -eq 18  # header + 16 sim points + 1 GPU point
if grep -qE "failed|timed-out" target/axes-full.csv; then
  echo "ci.sh: a machine-axes sweep point failed" >&2
  exit 1
fi

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
# The stalled point's whole diagnosis line, pinned: a change to the stall
# window or to what a diagnosis reports shows here.
grep -qF "livelock: no retirement in 1000000 cycles — cycle 1000644: 5148 entries + 173 Y partials outstanding, 93 events pending; suspect vault 0 (L1-LDQ 71, L2-LDQ 13, PE in-flight 553); occupancy history over 18 samples: peak 637, latest 637" \
  "$FAULT_CACHE/last-run.json"
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
# An observed run writes one file, its final artifact: timelines/ holds one
# <16-hex>.json file per ok row and nothing else, so the timed-out job
# leaves nothing behind.
TL_DIR="$TL_CACHE/timelines"
TL_OK=$(grep -c ',ok$' target/sweep-timeline.csv)
if [ "$TL_OK" -ne 1 ] \
  || [ "$(ls -A "$TL_DIR" | wc -l)" -ne "$TL_OK" ] \
  || [ "$(ls -A "$TL_DIR" | grep -cE '^[0-9a-f]{16}\.json$')" -ne "$TL_OK" ] \
  || [ -n "$(find "$TL_DIR" -mindepth 1 ! -type f)" ]; then
  echo "ci.sh: $TL_DIR must hold one <16-hex>.json file per ok row and nothing else:" >&2
  ls -A "$TL_DIR" >&2
  exit 1
fi
for f in "$TL_DIR"/*.json; do
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
# The first answered batch writes the request timeline (once its replies
# are out), so the running daemon has already left a loadable one.
for _ in $(seq 1 50); do [ -f "$SERVE_CACHE/serve-timeline.json" ] && break; sleep 0.1; done
cargo run --release -p spacea-bench --bin timeline -- --validate "$SERVE_CACHE/serve-timeline.json"
cargo run --release -p spacea-bench --bin serve -- shutdown --cache-dir "$SERVE_CACHE"
wait $SERVE_PID
grep -q '"computed":2' "$SERVE_CACHE/serve-manifest.json"
# The daemon writes its request timeline at shutdown: a valid Chrome trace
# that carries the serve gauges' tracks.
cargo run --release -p spacea-bench --bin timeline -- --validate "$SERVE_CACHE/serve-timeline.json"
grep -qF '"serve/queue-wait-us"' "$SERVE_CACHE/serve-timeline.json"
cargo run --release -p spacea-bench --bin serve -- start --quick --cache-dir "$SERVE_CACHE" &
SERVE_PID=$!
for _ in $(seq 1 150); do [ -f "$SERVE_CACHE/serve.port" ] && break; sleep 0.1; done
cargo run --release -p spacea-bench --bin serve -- submit --cache-dir "$SERVE_CACHE" \
  --matrix 1/256,2/256 --seeds 8,9,10,11 --check
# Journal compaction: 12 acked requests are on disk across both lives;
# compacting to the newest batch keeps proof bounded (an atomic rewrite).
cargo run --release -p spacea-bench --bin serve -- stat --cache-dir "$SERVE_CACHE" \
  | grep -q '"journal_records":12'
cargo run --release -p spacea-bench --bin serve -- compact --retain 1 --cache-dir "$SERVE_CACHE"
cargo run --release -p spacea-bench --bin serve -- stat --cache-dir "$SERVE_CACHE" \
  | grep -q '"journal_batches":1'
cargo run --release -p spacea-bench --bin serve -- shutdown --cache-dir "$SERVE_CACHE"
wait $SERVE_PID
grep -q '"computed":0' "$SERVE_CACHE/serve-manifest.json"
# Both lives journaled into one append-only file.
test "$(ls -A "$SERVE_CACHE/journal")" = "acks.jsonl"

# The run memo: a daemon simulates each (matrix, batch width) once. On a
# cache of its own, two sequential solo submits of one matrix: the first
# pass simulates, the second answers from the stored run, and both replies
# must still bitwise-match the offline SpMV. The manifest, written at
# shutdown, carries the final counters.
MEMO_CACHE=target/spacea-cache-serve-memo
rm -rf "$MEMO_CACHE"
cargo run --release -p spacea-bench --bin serve -- start --quick --cache-dir "$MEMO_CACHE" &
SERVE_PID=$!
for _ in $(seq 1 150); do [ -f "$MEMO_CACHE/serve.port" ] && break; sleep 0.1; done
for seed in 0 1; do
  cargo run --release -p spacea-bench --bin serve -- submit --cache-dir "$MEMO_CACHE" \
    --matrix 1/256 --seeds "$seed" --check
done
cargo run --release -p spacea-bench --bin serve -- stat --cache-dir "$MEMO_CACHE" \
  > target/serve-memo-stat.json
cargo run --release -p spacea-bench --bin serve -- shutdown --cache-dir "$MEMO_CACHE"
wait $SERVE_PID
grep -qF '"simulations_run":1' target/serve-memo-stat.json
grep -qF '"simulations_reused":1' target/serve-memo-stat.json
grep -qF '"requests":2' "$MEMO_CACHE/serve-manifest.json"
grep -qF '"simulations":{"run":1,"reused":1}' "$MEMO_CACHE/serve-manifest.json"

# Chaos soak: 8 seeded service-layer fault plans against live daemons. The
# invariant is absolute — every acknowledged response bitwise-matches the
# offline SpMV and is journaled, every rejection carries an explicit wire
# code, and a restart over the (possibly corrupted) cache heals and replays
# every journaled request correctly. --seed K re-runs a failing seed's plan.
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
