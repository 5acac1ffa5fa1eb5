#!/usr/bin/env bash
# Build (Release, into build-e2e/ at the repository root) and run the
# end-to-end benchmark. Every argument goes to bench_e2e:
#
#   bench/e2e/run.sh [--workload NAME|all] [--seed N] [--seconds S]
#                    [--trace 0|1|FILE] [--json OUT] [--verify]
#
# Exits non-zero when the build fails or any label is wrong.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/build-e2e"
mkdir -p "$build"

if ! {
  cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release &&
    cmake --build "$build" -j "$(nproc 2>/dev/null || echo 4)" --target bench_e2e
} >"$build/build.log" 2>&1; then
  tail -n 40 "$build/build.log" >&2
  echo "run.sh: build failed (full log: $build/build.log)" >&2
  exit 1
fi

sha="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
exec "$build/bench_e2e" --scratch "$build/scratch" --git-sha "$sha" "$@"
