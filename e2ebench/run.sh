#!/bin/sh
# Builds the benchmark from source in this checkout and runs one
# workload:
#   sh e2ebench/run.sh --workload or-local --seed 1 --seconds 25 --trace 0
# Build output goes to stderr; the last stdout line is the JSON result.
set -e
cd "$(dirname "$0")/.."
if ! command -v dune >/dev/null 2>&1; then
  for bin in "$HOME"/.opam/*/bin; do PATH="$PATH:$bin"; done
fi
# The shared dune cache lives outside the checkout; keep the build inside.
export DUNE_CACHE=disabled
dune build --root . --display quiet ./e2ebench/main.exe 1>&2
exec ./_build/default/e2ebench/main.exe run "$@"
