#!/bin/sh
# Build the serving CLI and the benchmark from this checkout, then run
# the benchmark:
#
#   sh benchmark/run.sh --workload NAME --seed N [--seconds S] [--trace 0|1]
#
# Build output goes to stderr; the last line on stdout is the result.
set -eu
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "benchmark: not a checkout of the repository (no dune-project, lib/ or bin/)" >&2
  exit 2
fi
DUNE_CACHE=disabled dune build --root . --display quiet \
  ./bin/sofia_cli.exe ./benchmark/main.exe 1>&2
exec ./_build/default/benchmark/main.exe --cli ./_build/default/bin/sofia_cli.exe "$@"
