#!/usr/bin/env bash
# Build the benchmark and the zkml CLI from source in this checkout,
# then run one workload:
#
#   bash perfbench/run.sh --workload prove-kzg --seed 1 --seconds 20 --trace 0
#
# The last line of stdout is the JSON result; everything else is the
# report. Exits non-zero without a result when the program cannot be
# built here (e.g. a directory holding only the benchmark).
set -euo pipefail

cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "perfbench: no zkml source tree here (need dune-project, lib/, bin/)" >&2
  exit 2
fi

# Keep every build artefact inside the checkout: no shared dune cache.
export DUNE_CACHE=disabled
command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)"
dune build --root . ./perfbench/zkbench.exe ./bin/zkml_cli.exe 1>&2
exec ./_build/default/perfbench/zkbench.exe "$@"
