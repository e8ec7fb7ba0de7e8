#!/bin/sh
# Emit the machine-readable benchmark report (BENCH_eval.json, uploaded as
# an artifact by the workflow).
set -eu
cd "$(dirname "$0")/.."

dune build bench/main.exe
# extra flags pass straight through (e.g. --jobs 4 adds _jobs4 rows for
# the vec selection and join kernels, the only ones that take a pool, next
# to the sequential ones)
dune exec bench/main.exe -- --json "$@"

echo "--- BENCH_eval.json ---"
cat BENCH_eval.json
