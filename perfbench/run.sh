#!/bin/sh
# Build the server and the benchmark from source, then run the benchmark:
#   sh perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
set -e
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "perfbench: run from a checkout of the repository (no dune-project, lib/ or bin/ here)" >&2
  exit 2
fi
dune build --root . --build-dir _build --display quiet ./bin/xmlrepro.exe ./perfbench/bench.exe 1>&2
exec ./_build/default/perfbench/bench.exe --server ./_build/default/bin/xmlrepro.exe "$@"
