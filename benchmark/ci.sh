#!/usr/bin/env bash
# Builds the benchmark offline and runs its own tests: the unit tests and
# the smoke test that holds BENCHMARK.json and the tool in step
# (`--quick` budgets, every workload, untraced and traced).
set -euo pipefail
cd "$(dirname "$0")"
cargo build --release --offline
cargo test --release --offline
