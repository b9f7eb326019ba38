#!/usr/bin/env bash
# Builds the hunt benchmark from this checkout and runs it. Run from the
# repository root; arguments pass through to the benchmark:
#
#   bash huntbench/run.sh --workload kube-hunt --seed 42 --seconds 20 --trace 0
#
# Build output goes to stderr; the last stdout line is the JSON result.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f HUNT_JOURNAL.sha256 ]; then
  echo "huntbench: run from the root of a partial-histories checkout" >&2
  exit 2
fi

# Keep every build artifact inside the checkout (no shared dune cache).
export DUNE_CACHE=disabled
dune build --root . ./huntbench/huntbench.exe 1>&2
exec ./_build/default/huntbench/huntbench.exe "$@"
