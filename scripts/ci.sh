#!/usr/bin/env bash
# CI for inlinetune. Stages, in order:
#
#   1. cargo fmt --check
#   2. offline release build and offline test suite; the property suites
#      (all seeded `simrng::cases` loops) run in it, debug and --release
#   3. `experiments all` regenerates its 29 CSVs byte for byte as
#      committed under results/, and `experiments problems`, `budget`,
#      `warmstart` and `online` theirs (every study but `strategies`)
#   4. benchmark/ci.sh: the out-of-workspace benchmark package builds
#      offline against the crates' public API and its --quick smoke runs
#      all four workloads
#   5. calibration stability of the benchmark's reference kernel
#   6. `tuned` daemon smoke: inline, flags and dss jobs over localhost
#      through a registered `evald` worker and a fitness store (a repeat
#      job is all store hits), metrics / obs / Prometheus scrape, reload
#      after restart, then the inlining job once more evaluated locally:
#      the unit memo hits and the evaluation count is what it always was;
#      both binaries refuse a flag they do not know
#   7. the docs of `sim`, `core`, `problems`, `served`, `evald`, `shard`,
#      `jit`, `inline` and `ir` build with every intra-doc link resolved
#   8. sim sweep, one invocation: the fault, mixed, store, online, shard,
#      scale and queue scenarios, then the broken-build self-test (replay
#      a failing seed with the `replay: simtest <scenario> --seed N ...`
#      line it prints, or scripts/replay.sh <scenario> <seed> [args])
#
# No stage gates a speed: those are measured by `benchmark run` and
# judged by `benchmark compare` (README "Performance").
#
# The workspace must never need the network: `--offline` everywhere.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --all --check

echo "== cargo build --release --offline"
cargo build --workspace --release --offline

echo "== cargo test --offline"
cargo test --workspace --offline --quiet
# The prepared-context differential suite once more with optimizations on,
# where its four threads really do race for the memo's slots; the
# optimizer's differential against its round-based reference and the
# property suites, whose arithmetic wraps there instead of trapping.
cargo test --release --offline --quiet --test prepared --test optimizer
cargo test --workspace --release --offline --quiet --test 'prop_*'
# Golden fixtures are frozen bytes: a run with REGEN_FIXTURES left in the
# environment re-blesses them silently and still passes, so fail here if
# the test stage changed any.
git diff --exit-code -- crates/served/tests/fixtures crates/stored/tests/fixtures \
  || { echo "golden fixtures differ from HEAD (REGEN_FIXTURES set?)"; exit 1; }

echo "== experiments all (results/ regenerate byte for byte)"
# The model is deterministic, so a change that means to keep every
# number (a speed-up, a refactor) must leave each committed CSV exactly
# as it is; one that moves a number re-blesses results/ in the same
# commit. `all` writes 29 of the CSVs in results/; the budget, strategies,
# problems, warmstart and online studies run on their own. All but
# `strategies` run here too (about 20 s between them on 2 cores):
# `strategies` races every search strategy on all five cells and takes
# about 160 s, longer than the rest of this stage together, so its
# strategies.csv is regenerated by hand when a change means to keep it.
EXP_DIR=$(mktemp -d)
target/release/experiments all --out "$EXP_DIR" >/dev/null
EXP_CSVS=0
for CSV in "$EXP_DIR"/*.csv; do
  cmp "$CSV" "results/$(basename "$CSV")" \
    || { echo "results/$(basename "$CSV") differs from a fresh run"; exit 1; }
  EXP_CSVS=$((EXP_CSVS + 1))
done
[ "$EXP_CSVS" -eq 29 ] \
  || { echo "experiments all wrote $EXP_CSVS CSVs, expected 29"; exit 1; }
for STUDY in problems budget warmstart online; do
  target/release/experiments "$STUDY" --out "$EXP_DIR" >/dev/null
done
for CSV in problems budget warmstart online online_summary; do
  cmp "$EXP_DIR/$CSV.csv" "results/$CSV.csv" \
    || { echo "results/$CSV.csv differs from a fresh run"; exit 1; }
done
rm -rf "$EXP_DIR"

echo "== benchmark package (offline build + --quick smoke of every workload)"
# The benchmark is its own workspace, so the build and tests above never
# compile it; this is what notices when a public-API change breaks it.
benchmark/ci.sh

echo "== calibration stability (the benchmark's reference kernel)"
# The `obs::calib` kernel time the benchmark divides every timing by
# must itself be repeatable: five back-to-back calibrations, each
# required to hold a <20% coefficient of variation and to agree with the
# others within 30%. #[ignore]d in plain `cargo test` (developer
# machines can be arbitrarily loaded); CI runs it explicitly, in release
# mode like the benchmark itself.
cargo test -p inlinetune-obs --release --offline --test calibration \
  -- --ignored --quiet

echo "== tuned smoke run"
TUNED=target/release/tuned
EVALD=target/release/evald
RUN_DIR=$(mktemp -d)
trap 'kill "$DAEMON_PID" "${WORKER_PID:-}" 2>/dev/null || true; rm -rf "$RUN_DIR"' EXIT

# A retired flag must stop the command, not be ignored (`evald --store`
# went with the worker-side store client).
! "$EVALD" --store 127.0.0.1:1 2>"$RUN_DIR/refused" \
  && grep -q "unknown flag '--store'" "$RUN_DIR/refused" \
  || { echo "evald --store was not refused by name"; exit 1; }

"$TUNED" serve --addr 127.0.0.1:0 --dir "$RUN_DIR" --workers 1 \
  --store-path "$RUN_DIR/store" --metrics-listen 127.0.0.1:0 &
DAEMON_PID=$!

# The daemon publishes its OS-assigned port in <dir>/addr.
for _ in $(seq 1 100); do
  [ -s "$RUN_DIR/addr" ] && break
  sleep 0.1
done
ADDR=$(cat "$RUN_DIR/addr")
echo "daemon at $ADDR"

# One eval worker joins over the wire; the jobs below evaluate on it.
"$EVALD" --register "$ADDR" --heartbeat-ms 200 >/dev/null &
WORKER_PID=$!
for _ in $(seq 1 100); do
  "$TUNED" metrics --addr "$ADDR" | grep -q '"registered":true' && break
  sleep 0.1
done

smoke_job() { # submits the inlining smoke job and waits for it
  SUBMIT=$("$TUNED" submit --addr "$ADDR" --name smoke --scenario opt --goal tot \
    --bench db --pop 6 --gens 2 --seed 7 --threads 1)
  echo "submitted: $SUBMIT"
  ID=$(printf '%s' "$SUBMIT" | sed -n 's/.*"id":\([0-9]*\).*/\1/p')
  "$TUNED" watch --addr "$ADDR" --id "$ID" | tail -n 1 | grep -q '"state":"done"' \
    || { echo "smoke job did not finish"; exit 1; }
}
store_stat() { # key -> the count `tuned store stats` reports under it
  "$TUNED" store stats --addr "$ADDR" | sed -n "s/.*\"$1\":\([0-9]*\).*/\1/p"
}
smoke_job
"$TUNED" metrics --addr "$ADDR" | grep -q '"completed":[1-9]' \
  || { echo "the registered worker evaluated nothing"; exit 1; }

"$TUNED" metrics --addr "$ADDR" | grep -q '"generations":' \
  || { echo "metrics missing counters"; exit 1; }

"$TUNED" obs --addr "$ADDR" | grep -q '"counters"' \
  || { echo "obs verb missing registry snapshot"; exit 1; }

# Prometheus exposition: the daemon publishes the exporter's OS-assigned
# port in <dir>/metrics-addr; scrape it with bash's /dev/tcp.
for _ in $(seq 1 100); do
  [ -s "$RUN_DIR/metrics-addr" ] && break
  sleep 0.1
done
MADDR=$(cat "$RUN_DIR/metrics-addr")
echo "metrics exporter at $MADDR"
exec 3<>"/dev/tcp/${MADDR%:*}/${MADDR##*:}"
printf 'GET /metrics HTTP/1.0\r\n\r\n' >&3
SCRAPE=$(cat <&3)
exec 3<&- 3>&-
printf '%s' "$SCRAPE" | grep -q '^tuned_jobs{state="done"} 1' \
  || { echo "scrape missing tuned_jobs gauge"; printf '%s\n' "$SCRAPE"; exit 1; }
printf '%s' "$SCRAPE" | grep -q '^# TYPE ga_generations counter' \
  || { echo "scrape missing obs registry counters"; exit 1; }
# The scrape and the `metrics` verb read one store: on the now-idle
# daemon they must report the same evaluation count.
SCRAPED_EVALS=$(printf '%s' "$SCRAPE" \
  | sed -n 's/^tuned_evaluations_total \([0-9]*\)$/\1/p')
VERB_EVALS=$("$TUNED" metrics --addr "$ADDR" | sed -n 's/.*"evaluations":\([0-9]*\).*/\1/p')
[ -n "$SCRAPED_EVALS" ] && [ "$SCRAPED_EVALS" = "$VERB_EVALS" ] \
  || { echo "scrape says $SCRAPED_EVALS evaluations, metrics verb $VERB_EVALS"; exit 1; }

# The daemon looks every genome up before dispatching it: the same job
# again is answered from the store, which takes no new record.
APPENDS=$(store_stat appends)
HITS=$(store_stat hits)
smoke_job
[ "$APPENDS" -gt 0 ] && [ "$(store_stat appends)" = "$APPENDS" ] \
  && [ "$(store_stat hits)" -gt "$HITS" ] \
  || { echo "repeat job: appends $APPENDS -> $(store_stat appends)," \
         "hits $HITS -> $(store_stat hits)"; exit 1; }

# Smoke-tune each non-inlining problem domain through the same daemon:
# one flags job, one dss job, both must converge over the same worker
# pool that just tuned the inlining smoke job.
declare -A PROBLEM_IDS
for PROBLEM in flags dss; do
  SUBMIT=$("$TUNED" submit --addr "$ADDR" --name "smoke-$PROBLEM" \
    --scenario opt --goal tot --bench db --problem "$PROBLEM" \
    --pop 6 --gens 2 --seed 7 --threads 1)
  echo "submitted $PROBLEM: $SUBMIT"
  PID_NUM=$(printf '%s' "$SUBMIT" | sed -n 's/.*"id":\([0-9]*\).*/\1/p')
  PROBLEM_IDS[$PROBLEM]=$PID_NUM
  LAST=$("$TUNED" watch --addr "$ADDR" --id "$PID_NUM" | tail -n 1)
  printf '%s' "$LAST" | grep -q '"state":"done"' \
    || { echo "$PROBLEM smoke job did not finish"; exit 1; }
  printf '%s' "$LAST" | grep -q "\"problem\":\"$PROBLEM\"" \
    || { echo "$PROBLEM job lost its problem tag on the wire"; exit 1; }
done

"$TUNED" shutdown --addr "$ADDR"
wait "$DAEMON_PID"
kill "$WORKER_PID"

# Checkpoint reload: restart the daemon on the same run directory; the
# flags and dss jobs must come back from their on-disk specs/results as
# finished jobs with their problem tags intact.
rm -f "$RUN_DIR/addr"
"$TUNED" serve --addr 127.0.0.1:0 --dir "$RUN_DIR" --workers 1 &
DAEMON_PID=$!
for _ in $(seq 1 100); do
  [ -s "$RUN_DIR/addr" ] && break
  sleep 0.1
done
ADDR=$(cat "$RUN_DIR/addr")
for PROBLEM in flags dss; do
  STATUS=$("$TUNED" status --addr "$ADDR" --id "${PROBLEM_IDS[$PROBLEM]}")
  printf '%s' "$STATUS" | grep -q '"state":"done"' \
    || { echo "$PROBLEM job did not reload as done"; echo "$STATUS"; exit 1; }
  printf '%s' "$STATUS" | grep -q "\"problem\":\"$PROBLEM\"" \
    || { echo "$PROBLEM job reloaded without its problem tag"; echo "$STATUS"; exit 1; }
done

# No worker and no store on this daemon: the inlining smoke job runs its
# fitness calls here, through the job's own unit memo. The memo must hit,
# and must not change what counts as an evaluation — the job computed 8
# before the memo existed.
obs_counter() { # name -> the registry counter's value (empty if absent)
  "$TUNED" obs --addr "$ADDR" | sed -n "s/.*\"$1\":\"\([0-9]*\)\".*/\1/p"
}
smoke_job
MEMO_HITS=$(obs_counter jit_unit_memo_hits_total)
[ "${MEMO_HITS:-0}" -gt 0 ] \
  || { echo "local smoke job: unit memo hits '${MEMO_HITS}', expected > 0"; exit 1; }
[ "$(obs_counter tuned_evaluations_total)" = 8 ] \
  || { echo "local smoke job computed $(obs_counter tuned_evaluations_total)" \
         "evaluations, expected 8"; exit 1; }
"$TUNED" shutdown --addr "$ADDR"
wait "$DAEMON_PID"

echo "== docs (intra-doc links resolve)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps -p inlinetune-sim \
  -p inlinetune-core -p inlinetune-problems -p inlinetune-served -p inlinetune-evald \
  -p inlinetune-shard -p inlinetune-jit -p inlinetune-inline -p inlinetune-ir

echo "== sim sweep (fault, mixed, store, online, shard, scale and queue scenarios)"
# One runner, seven scenarios (what each derives and checks: DESIGN.md
# §4.9), every one from base seed 1 so CI failures reproduce exactly:
# a failing seed prints its broken invariants, its fault trace and a
# complete `replay: simtest <scenario> --seed N ...` line. The shard
# soak's headline scale is 1000 virtual clients over a 100-worker fleet
# per seed; SIM_SHARD_CLIENTS / SIM_SHARD_WORKERS scale it down on slow
# hosts (the replay line carries whatever scale ran). simtest exits
# nonzero on any failing seed and also when a green sweep never
# exercised what it is there for (no frame fault injected, no wal torn,
# no retune committed, no queue_full ridden); the grep re-checks the
# artifact so a stale file cannot pass.
target/release/simtest "fault:${SIM_SWEEP_SEEDS:-200}" \
  "mixed:${SIM_MIXED_SEEDS:-8}" store:60 "online:${SIM_ONLINE_SEEDS:-50}" \
  "shard:${SIM_SHARD_SEEDS:-50}" --clients "${SIM_SHARD_CLIENTS:-1000}" \
  --workers "${SIM_SHARD_WORKERS:-100}" scale:20 queue:10 --out BENCH_sim.json \
  || { echo "sim sweep failed (replay lines above)"; cat BENCH_sim.json; exit 1; }
grep -q '"failed_total":0' BENCH_sim.json \
  || { echo "BENCH_sim.json missing the green verdict"; cat BENCH_sim.json; exit 1; }
# The sweep must prove it has teeth: a build that loses re-dispatched
# work has to be caught by at least one seed.
target/release/simtest fault:12 --base-seed 9 --broken >/dev/null \
  || { echo "broken-build self-test: no seed caught the lost work"; exit 1; }

echo "== CI OK"
