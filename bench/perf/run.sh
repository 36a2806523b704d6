#!/usr/bin/env bash
# Build the benchmark and the webdep CLI from this checkout's sources,
# then run one workload:
#
#   bash bench/perf/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Build output goes to stderr; the last line on stdout is the JSON result.
set -euo pipefail
cd "$(dirname "$0")/../.."
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "run.sh: $(pwd) is not a webdep checkout (no dune-project, lib/ or bin/)" >&2
  exit 2
fi
command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)"
dune build --root . --cache=disabled --display=quiet \
  bench/perf/main.exe bin/webdep_cli.exe 1>&2
exec ./_build/default/bench/perf/main.exe "$@"
