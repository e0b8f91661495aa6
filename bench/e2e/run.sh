#!/bin/sh
# Builds the benchmark from source and runs it; run from the repository
# root.  All arguments go to sbbench.exe:
#
#   sh bench/e2e/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# --root pins the dune workspace to the current directory, and the
# disabled cache keeps the build inside its _build directory.
exec dune exec --root . --cache=disabled --display quiet bench/e2e/sbbench.exe -- "$@"
