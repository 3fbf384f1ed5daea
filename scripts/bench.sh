#!/usr/bin/env bash
# Benchmarks distributed fitness evaluation: the same tuning job is run
# twice — once through a lone `tuned` daemon evaluating locally, once
# fanned out over two `evald` worker processes — and the throughput
# numbers land in BENCH_evald.json together with a bit-identity check of
# the tuned parameters (the two runs must produce the same genes).
#
# Steady-state methodology: each case first runs a small warmup job
# (priming the daemon's code paths and, in the distributed case, the
# workers' problem caches — the one-off problem build used to be charged
# to the measured run), then times the measured job wall-to-wall from
# submit to the terminal watch frame. Throughput is the measured job's
# evaluations over that wall time, not over daemon uptime — uptime
# counts boot and idle and once diluted both numbers toward a wash. The
# default budget (16x64) is the steady-state floor where per-generation
# dispatch cost, not setup, is what's being measured.
#
# The throughput gate adapts to the host:
#   * >= 2 usable cores: the batched/pipelined dispatcher must make the
#     distributed case *strictly beat* local evals/sec at 2 workers.
#   * single-core host (CI containers pinned to one CPU): two worker
#     processes cannot physically out-compute one — every eval
#     serializes on the same core, so "distributed beats local" is not
#     measurable here; the virtual-clock scaling suite (BENCH_scale.json,
#     `simtest scale`) is the scaling proof. What IS measurable — and
#     what regressed in the one-RPC-per-genome days — is dispatch
#     overhead: distributed must hold >= BENCH_MIN_SINGLECORE_RATIO of
#     local throughput (the old per-genome dispatch and a 50ms accept
#     stall both land far below it).
# Either way the script exits nonzero when its gate fails.
#
# Knobs (environment): BENCH_POP (population), BENCH_GENS (generations),
# BENCH_SEED, BENCH_MIN_SINGLECORE_RATIO. Defaults are small enough for
# a CI smoke run.
set -euo pipefail
cd "$(dirname "$0")/.."

POP=${BENCH_POP:-16}
GENS=${BENCH_GENS:-64}
SEED=${BENCH_SEED:-7}
OUT=${BENCH_OUT:-BENCH_evald.json}
MIN_RATIO=${BENCH_MIN_SINGLECORE_RATIO:-0.70}
CORES=$(nproc 2>/dev/null || echo 1)

cargo build --workspace --release --offline >/dev/null

TUNED=target/release/tuned
EVALD=target/release/evald

WORK=$(mktemp -d)
PIDS=()
cleanup() {
  for pid in "${PIDS[@]:-}"; do kill "$pid" 2>/dev/null || true; done
  rm -rf "$WORK"
}
trap cleanup EXIT

wait_file() { # path
  for _ in $(seq 1 100); do [ -s "$1" ] && return 0; sleep 0.1; done
  echo "bench: timed out waiting for $1" >&2
  return 1
}

json_num() { # file, field -> first numeric value of "field"
  sed -n "s/.*\"$2\":\(-\{0,1\}[0-9.][0-9.e+-]*\).*/\1/p" "$1" | head -n 1
}

submit_and_watch() { # addr, job name, pop, gens, seed
  local submitted id
  submitted=$("$TUNED" submit --addr "$1" --name "$2" \
    --scenario opt --goal tot --bench db \
    --pop "$3" --gens "$4" --seed "$5" --threads 1)
  id=$(printf '%s' "$submitted" | sed -n 's/.*"id":\([0-9]*\).*/\1/p')
  "$TUNED" watch --addr "$1" --id "$id" >/dev/null
  printf '%s' "$id"
}

run_case() { # name, extra `tuned` serve flags...
  local name=$1
  shift
  local dir="$WORK/$name"
  mkdir -p "$dir"
  "$TUNED" serve --addr 127.0.0.1:0 --dir "$dir" --workers 1 "$@" \
    >"$dir/serve.log" 2>&1 &
  local pid=$!
  PIDS+=("$pid")
  wait_file "$dir/addr"
  local addr
  addr=$(cat "$dir/addr")

  # Warmup: primes the daemon and (distributed) the workers' problem
  # caches so the measured job sees steady state, not one-off builds.
  # Identical for both cases — the fitness memo it leaves behind is the
  # same on each side, preserving the bit-identity comparison.
  submit_and_watch "$addr" "warmup-$name" 6 2 3 >/dev/null
  "$TUNED" metrics --addr "$addr" >"$dir/metrics-warm.json"

  local id t0 t1
  t0=$(date +%s.%N)
  id=$(submit_and_watch "$addr" "bench-$name" "$POP" "$GENS" "$SEED")
  t1=$(date +%s.%N)
  awk -v a="$t0" -v b="$t1" 'BEGIN { printf "%.6f", b - a }' >"$dir/wall"

  "$TUNED" status --addr "$addr" --id "$id" >"$dir/status.json"
  "$TUNED" metrics --addr "$addr" >"$dir/metrics.json"
  "$TUNED" shutdown --addr "$addr" >/dev/null
  wait "$pid" 2>/dev/null || true

  grep -q '"state":"done"' "$dir/status.json" \
    || { echo "bench: $name job did not finish"; cat "$dir/status.json"; exit 1; }
}

echo "== bench: local (1 daemon, in-process evaluation)"
run_case local

echo "== bench: distributed (1 daemon + 2 evald workers)"
for i in 1 2; do
  "$EVALD" --addr 127.0.0.1:0 --addr-file "$WORK/worker$i.addr" \
    >"$WORK/worker$i.log" 2>&1 &
  PIDS+=("$!")
  wait_file "$WORK/worker$i.addr"
done
run_case distributed \
  --worker "$(cat "$WORK/worker1.addr")" \
  --worker "$(cat "$WORK/worker2.addr")"

genes() { # status file -> the tuned gene vector
  sed -n 's/.*"genes":\[\([0-9,-]*\)\].*/\1/p' "$1" | head -n 1
}

LOCAL_GENES=$(genes "$WORK/local/status.json")
DIST_GENES=$(genes "$WORK/distributed/status.json")
IDENTICAL=false
[ -n "$LOCAL_GENES" ] && [ "$LOCAL_GENES" = "$DIST_GENES" ] && IDENTICAL=true

measured_evals() { # name -> evaluations performed by the measured job
  awk -v total="$(json_num "$WORK/$1/metrics.json" evaluations)" \
    -v warm="$(json_num "$WORK/$1/metrics-warm.json" evaluations)" \
    'BEGIN { print total - warm }'
}

evals_per_sec() { # name -> measured-job evals over measured-job wall time
  awk -v ev="$(measured_evals "$1")" -v wall="$(cat "$WORK/$1/wall")" \
    'BEGIN { printf "%.4f", (wall > 0) ? ev / wall : 0 }'
}

LOCAL_EPS=$(evals_per_sec local)
DIST_EPS=$(evals_per_sec distributed)
BEATS=$(awk -v l="$LOCAL_EPS" -v d="$DIST_EPS" \
  'BEGIN { print (d > l) ? "true" : "false" }')
SPEEDUP=$(awk -v l="$LOCAL_EPS" -v d="$DIST_EPS" \
  'BEGIN { printf "%.4f", (l > 0) ? d / l : 0 }')
if [ "$CORES" -ge 2 ]; then
  THROUGHPUT_GATE="beats-local"
  THROUGHPUT_OK=$BEATS
else
  THROUGHPUT_GATE="overhead-bounded-single-core"
  THROUGHPUT_OK=$(awk -v s="$SPEEDUP" -v min="$MIN_RATIO" \
    'BEGIN { print (s >= min) ? "true" : "false" }')
fi

emit_case() { # name
  local m="$WORK/$1/metrics.json"
  local wall evals hit_rate completed batches
  wall=$(cat "$WORK/$1/wall")
  evals=$(measured_evals "$1")
  hit_rate=$(json_num "$m" cache_hit_rate)
  completed=$(sed -n 's/.*"remote":{[^}]*"completed":\([0-9]*\).*/\1/p' "$m" | head -n 1)
  batches=$(sed -n 's/.*"remote":{[^}]*"batches":\([0-9]*\).*/\1/p' "$m" | head -n 1)
  awk -v n="$1" -v wall="$wall" -v ev="$evals" \
      -v hit="$hit_rate" -v rc="${completed:-0}" -v rb="${batches:-0}" 'BEGIN {
    eps = (wall > 0) ? ev / wall : 0
    printf "    \"%s\": {\n", n
    printf "      \"wall_secs\": %.4f,\n", wall
    printf "      \"evaluations\": %d,\n", ev
    printf "      \"evaluations_per_sec\": %.4f,\n", eps
    printf "      \"cache_hit_rate\": %.4f,\n", hit
    printf "      \"remote_completed\": %d,\n", rc
    printf "      \"remote_batches\": %d\n", rb
    printf "    }"
  }'
}

{
  printf '{\n'
  printf '  "bench": "evald distributed evaluation",\n'
  printf '  "pop": %d,\n' "$POP"
  printf '  "gens": %d,\n' "$GENS"
  printf '  "seed": %d,\n' "$SEED"
  printf '  "cores": %d,\n' "$CORES"
  printf '  "identical": %s,\n' "$IDENTICAL"
  printf '  "speedup_2w": %s,\n' "$SPEEDUP"
  printf '  "distributed_beats_local": %s,\n' "$BEATS"
  printf '  "throughput_gate": "%s",\n' "$THROUGHPUT_GATE"
  printf '  "min_single_core_ratio": %s,\n' "$MIN_RATIO"
  printf '  "throughput_ok": %s,\n' "$THROUGHPUT_OK"
  printf '  "cases": {\n'
  emit_case local
  printf ',\n'
  emit_case distributed
  printf '\n  }\n'
  printf '}\n'
} >"$OUT"

echo "== bench: wrote $OUT"
cat "$OUT"
[ "$IDENTICAL" = true ] || { echo "bench: distributed result differs from local!"; exit 1; }
[ "$THROUGHPUT_OK" = true ] || {
  if [ "$THROUGHPUT_GATE" = beats-local ]; then
    echo "bench: distributed (2 workers, $DIST_EPS evals/sec) did not beat local ($LOCAL_EPS evals/sec)!"
  else
    echo "bench: single-core dispatch overhead too high:" \
      "distributed $DIST_EPS vs local $LOCAL_EPS evals/sec" \
      "(ratio $SPEEDUP < $MIN_RATIO)"
  fi
  exit 1
}

# ---------------------------------------------------------------------------
# Observability overhead: the same deterministic tuning job, once with the
# obs layer recording and once with it compiled out (`inlinetune-obs/off`),
# must land within BENCH_OBS_MAX_PCT of each other and produce bit-identical
# fitness.
#
# Methodology notes (the naive version of this benchmark is wrong):
#   * The two builds' hot functions are byte-identical, but the extra obs
#     code shifts their addresses, and code-placement alone swings wall
#     time by 3-4% on this workload. `-align-all-functions=6` pins every
#     function to a 64-byte boundary in BOTH builds, which collapses that
#     layout bias below the noise floor.
#   * Runs alternate between the variants and each side keeps its minimum,
#     so slow drift (thermal, background load) hits both equally.
#
#   * Each process runs the job BENCH_OBS_REPS times and reports its
#     in-process minimum (warm caches, settled CPU frequency), which is a
#     much tighter estimator than one cold run per process.
#
# Knobs: BENCH_OBS_POP, BENCH_OBS_GENS, BENCH_OBS_RUNS (alternating pairs),
# BENCH_OBS_REPS (in-process repetitions), BENCH_OBS_MAX_PCT, BENCH_OBS_OUT.

OBS_POP=${BENCH_OBS_POP:-8}
OBS_GENS=${BENCH_OBS_GENS:-2}
OBS_RUNS=${BENCH_OBS_RUNS:-3}
OBS_REPS=${BENCH_OBS_REPS:-6}
OBS_MAX_PCT=${BENCH_OBS_MAX_PCT:-2.0}
OBS_OUT=${BENCH_OBS_OUT:-BENCH_obs.json}
OBS_RUSTFLAGS="-C llvm-args=-align-all-functions=6"

echo "== bench: obs overhead (recording on vs. compiled out)"
RUSTFLAGS="$OBS_RUSTFLAGS" CARGO_TARGET_DIR=target/bench-obs-on \
  cargo build --release --offline --example obs_overhead >/dev/null
RUSTFLAGS="$OBS_RUSTFLAGS" CARGO_TARGET_DIR=target/bench-obs-off \
  cargo build --release --offline --features inlinetune-obs/off \
  --example obs_overhead >/dev/null

OBS_ON_BIN=target/bench-obs-on/release/examples/obs_overhead
OBS_OFF_BIN=target/bench-obs-off/release/examples/obs_overhead

obs_field() { # json-line, field -> value (numbers and quoted strings)
  printf '%s' "$1" | sed -n "s/.*\"$2\":\"\{0,1\}\([a-z0-9]*\)\"\{0,1\}[,}].*/\1/p"
}

ON_MIN= OFF_MIN= ON_BITS= OFF_BITS=
for _ in $(seq 1 "$OBS_RUNS"); do
  on_line=$("$OBS_ON_BIN" "$OBS_POP" "$OBS_GENS" "$SEED" "$OBS_REPS")
  off_line=$("$OBS_OFF_BIN" "$OBS_POP" "$OBS_GENS" "$SEED" "$OBS_REPS")
  on_us=$(obs_field "$on_line" elapsed_micros)
  off_us=$(obs_field "$off_line" elapsed_micros)
  ON_BITS=$(obs_field "$on_line" fitness_bits)
  OFF_BITS=$(obs_field "$off_line" fitness_bits)
  [ "$(obs_field "$on_line" obs_compiled_out)" = false ] \
    || { echo "bench: on-variant reports recording compiled out"; exit 1; }
  [ "$(obs_field "$off_line" obs_compiled_out)" = true ] \
    || { echo "bench: off-variant reports recording still live"; exit 1; }
  if [ -z "$ON_MIN" ] || [ "$on_us" -lt "$ON_MIN" ]; then ON_MIN=$on_us; fi
  if [ -z "$OFF_MIN" ] || [ "$off_us" -lt "$OFF_MIN" ]; then OFF_MIN=$off_us; fi
  echo "   on ${on_us}us / off ${off_us}us"
done

[ "$ON_BITS" = "$OFF_BITS" ] && OBS_IDENTICAL=true || OBS_IDENTICAL=false

OVERHEAD_PCT=$(awk -v on="$ON_MIN" -v off="$OFF_MIN" \
  'BEGIN { printf "%.3f", (on - off) * 100.0 / off }')
OVERHEAD_OK=$(awk -v pct="$OVERHEAD_PCT" -v max="$OBS_MAX_PCT" \
  'BEGIN { print (pct < max) ? "true" : "false" }')

{
  printf '{\n'
  printf '  "bench": "obs recording overhead",\n'
  printf '  "pop": %d,\n' "$OBS_POP"
  printf '  "gens": %d,\n' "$OBS_GENS"
  printf '  "seed": %d,\n' "$SEED"
  printf '  "runs": %d,\n' "$OBS_RUNS"
  printf '  "reps_per_run": %d,\n' "$OBS_REPS"
  printf '  "on_min_micros": %d,\n' "$ON_MIN"
  printf '  "off_min_micros": %d,\n' "$OFF_MIN"
  printf '  "overhead_pct": %s,\n' "$OVERHEAD_PCT"
  printf '  "overhead_max_pct": %s,\n' "$OBS_MAX_PCT"
  printf '  "overhead_ok": %s,\n' "$OVERHEAD_OK"
  printf '  "fitness_identical": %s\n' "$OBS_IDENTICAL"
  printf '}\n'
} >"$OBS_OUT"

echo "== bench: wrote $OBS_OUT"
cat "$OBS_OUT"
[ "$OBS_IDENTICAL" = true ] \
  || { echo "bench: observability changed the tuned result!"; exit 1; }
[ "$OVERHEAD_OK" = true ] \
  || { echo "bench: obs overhead ${OVERHEAD_PCT}% exceeds ${OBS_MAX_PCT}%"; exit 1; }

# ---------------------------------------------------------------------------
# Search-strategy shootout: every pluggable strategy plus the racing
# portfolio runs the same Opt:Tot/db tuning cell under the same proposal
# budget (pop × gens), one `tuned` job per strategy; the fitness each one
# reaches lands in BENCH_search.json. A second daemon then runs a
# portfolio with a duplicated deterministic member (`race:ga+grid+grid`):
# the duplicate's probes must be answered from the race's shared memo,
# so the `race_shared_hits` counter is required to be nonzero — the
# cross-strategy cache demonstrably works.
#
# Knobs: BENCH_SEARCH_POP / BENCH_SEARCH_GENS (default: the evald bench's
# POP/GENS), BENCH_SEARCH_OUT.

SEARCH_POP=${BENCH_SEARCH_POP:-$POP}
SEARCH_GENS=${BENCH_SEARCH_GENS:-$GENS}
SEARCH_OUT=${BENCH_SEARCH_OUT:-BENCH_search.json}
SEARCH_SPECS="ga random hillclimb anneal grid race:ga+random+hillclimb"

echo "== bench: search strategies (budget ${SEARCH_POP}x${SEARCH_GENS} per strategy)"

start_daemon() { # dir -> addr on stdout
  mkdir -p "$1"
  "$TUNED" serve --addr 127.0.0.1:0 --dir "$1" --workers 1 \
    >"$1/serve.log" 2>&1 &
  PIDS+=("$!")
  wait_file "$1/addr"
  cat "$1/addr"
}

run_strategy() { # addr, spec, status-file
  local submitted id
  submitted=$("$TUNED" submit --addr "$1" --name "bench-$2" \
    --scenario opt --goal tot --bench db --strategy "$2" \
    --pop "$SEARCH_POP" --gens "$SEARCH_GENS" --seed "$SEED" --threads 1)
  id=$(printf '%s' "$submitted" | sed -n 's/.*"id":\([0-9]*\).*/\1/p')
  "$TUNED" watch --addr "$1" --id "$id" >/dev/null
  "$TUNED" status --addr "$1" --id "$id" >"$3"
  grep -q '"state":"done"' "$3" \
    || { echo "bench: strategy $2 did not finish"; cat "$3"; exit 1; }
}

SEARCH_DIR="$WORK/search"
SEARCH_ADDR=$(start_daemon "$SEARCH_DIR")
FITNESS_ROWS=""
for spec in $SEARCH_SPECS; do
  key=${spec%%:*} # "race:ga+random+hillclimb" reports as "race"
  run_strategy "$SEARCH_ADDR" "$spec" "$SEARCH_DIR/$key.json"
  fit=$(json_num "$SEARCH_DIR/$key.json" fitness)
  [ -n "$fit" ] || { echo "bench: no fitness for $spec"; exit 1; }
  echo "   $key: fitness $fit"
  FITNESS_ROWS="$FITNESS_ROWS    \"$key\": $fit,\n"
done
"$TUNED" shutdown --addr "$SEARCH_ADDR" >/dev/null

# The shared-memo check runs on its own daemon so the counter can only
# come from this one portfolio.
MEMO_DIR="$WORK/search-memo"
MEMO_ADDR=$(start_daemon "$MEMO_DIR")
MEMO_SPEC="race:ga+grid+grid"
run_strategy "$MEMO_ADDR" "$MEMO_SPEC" "$MEMO_DIR/status.json"
"$TUNED" obs --addr "$MEMO_ADDR" >"$MEMO_DIR/obs.json"
"$TUNED" shutdown --addr "$MEMO_ADDR" >/dev/null
SHARED_HITS=$(grep -o 'race_shared_hits[^:]*:"[0-9]*"' "$MEMO_DIR/obs.json" \
  | sed 's/.*:"//; s/"//' | awk '{s += $1} END {print s + 0}')
[ "$SHARED_HITS" -gt 0 ] && SHARED_OK=true || SHARED_OK=false

{
  printf '{\n'
  printf '  "bench": "search strategy shootout",\n'
  printf '  "pop": %d,\n' "$SEARCH_POP"
  printf '  "gens": %d,\n' "$SEARCH_GENS"
  printf '  "seed": %d,\n' "$SEED"
  printf '  "budget": %d,\n' "$((SEARCH_POP * SEARCH_GENS))"
  printf '  "fitness": {\n'
  printf '%b' "$FITNESS_ROWS" | sed '$ s/,$//'
  printf '  },\n'
  printf '  "shared_memo_spec": "%s",\n' "$MEMO_SPEC"
  printf '  "race_shared_hits": %d,\n' "$SHARED_HITS"
  printf '  "shared_ok": %s\n' "$SHARED_OK"
  printf '}\n'
} >"$SEARCH_OUT"

echo "== bench: wrote $SEARCH_OUT"
cat "$SEARCH_OUT"
[ "$SHARED_OK" = true ] \
  || { echo "bench: racing portfolio never hit its shared memo!"; exit 1; }

# ---------------------------------------------------------------------------
# Persistent fitness store: durable append / lookup throughput plus the
# warm-start payoff. `store_bench` tunes one cell cold, rebuilds a store
# from the cold run's evaluation log, re-tunes warm-started under the
# identical budget, and asserts warm start reaches the cold target in no
# more evaluations (`warm_ok`). Every append flushes before acking, so
# append_per_sec is the durable path, not a page-cache mirage.
#
# Knobs: BENCH_STORE_RECORDS, BENCH_STORE_OUT.

STORE_RECORDS=${BENCH_STORE_RECORDS:-2000}
STORE_OUT=${BENCH_STORE_OUT:-BENCH_store.json}

echo "== bench: persistent fitness store (${STORE_RECORDS} records)"
cargo build --release --offline --example store_bench >/dev/null
target/release/examples/store_bench "$STORE_RECORDS" "$POP" "$GENS" "$SEED" \
  >"$STORE_OUT"

echo "== bench: wrote $STORE_OUT"
cat "$STORE_OUT"
grep -q '"warm_ok":true' "$STORE_OUT" \
  || { echo "bench: warm start needed more evaluations than cold!"; exit 1; }

# ---------------------------------------------------------------------------
# Online drift study + calibrated perf gates: `experiments online` runs
# adaptive re-tuning, the frozen incumbent and a per-epoch oracle on
# three seeded drift schedules (step/ramp/cyclic), writing per-epoch
# rows to results/online.csv. `perfgate` then times the tuner's hot
# paths (genome eval, durable store put/get, dispatch-ledger
# claim/resolve) against per-machine thresholds calibrated from the
# obs reference kernel, folds in the study's online-vs-frozen verdict
# (online must win on >= 2 of 3 schedules), and writes BENCH_online.json.
# perfgate exits nonzero when any gate trips.
#
# Knobs: BENCH_ONLINE_OUT, BENCH_PERFGATE_REPS.

ONLINE_OUT=${BENCH_ONLINE_OUT:-BENCH_online.json}

echo "== bench: online drift study (3 schedules x online/frozen/oracle)"
target/release/experiments online --seed "$SEED" >/dev/null

echo "== bench: calibrated perf gates"
target/release/perfgate --out "$ONLINE_OUT" --csv results/online.csv \
  --reps "${BENCH_PERFGATE_REPS:-5}" \
  || { echo "bench: a calibrated perf gate tripped!"; cat "$ONLINE_OUT"; exit 1; }

echo "== bench: wrote $ONLINE_OUT"
cat "$ONLINE_OUT"
