#!/usr/bin/env bash
# Replay one failing simulation seed with its full fault trace.
#
#   scripts/replay.sh 1442                         # fault scenario, seed 1442
#   scripts/replay.sh fault 1442 --broken          # ...against the redispatch-off build
#   scripts/replay.sh shard 3 --clients 60 --workers 8
#
# A sweep (`simtest <scenario>:N`, run by scripts/ci.sh) prints a
# `replay: simtest <scenario> --seed <seed> [args]` line for every
# failing seed; the arguments after the seed are the scale or mode the
# derivation read, so pass them along. The whole scenario — fault plan,
# crash/partition timeline, GA seed — is derived from that one integer
# (and those arguments), so this reproduces the exact failure: same
# frames dropped, same virtual timestamps, same verdict.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
  echo "usage: scripts/replay.sh [<scenario>] <seed> [simtest args]" >&2
  exit 2
}
[ $# -ge 1 ] || usage
SCENARIO=fault
case $1 in
  *[!0-9]*) SCENARIO=$1; shift; [ $# -ge 1 ] || usage ;;
esac
SEED=$1
shift

# `store` runs no simulated network, so it has no trace to print.
TRACE=--trace
[ "$SCENARIO" = store ] && TRACE=

cargo build --release --offline -p inlinetune-sim --bin simtest >/dev/null
exec target/release/simtest "$SCENARIO" --seed "$SEED" $TRACE "$@"
