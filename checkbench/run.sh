#!/bin/sh
# Build the checker benchmark from source, then run it; every argument
# is passed through (see checkbench/README.md). Run from the repository
# root. Build output goes to stderr so the last stdout line stays the
# result.
cd "$(dirname "$0")/.." || exit 2
# keep every build artefact inside the checkout (no shared dune cache)
DUNE_CACHE=disabled dune build --root . ./checkbench/main.exe 1>&2 || exit 2
exec ./_build/default/checkbench/main.exe "$@"
