#!/usr/bin/env bash
# Tier-1 verification, end to end: configure, build, test from a clean (or
# incremental) build tree. Mirrors ROADMAP.md's "Tier-1 verify" command.
#
# Usage: scripts/check.sh [--clean]
set -euo pipefail

cd "$(dirname "$0")/.."

if [[ "${1:-}" == "--clean" ]]; then
  rm -rf build
fi

# -Werror everywhere (tests, tools, examples): a clean build prints no
# warnings, and a new one fails the check.
cmake -B build -S . -DXCHAIN_WERROR=ON
cmake --build build -j
ctest --test-dir build --output-on-failure -j "$(nproc)"

# Bounded deterministic fuzz smoke: the planted-bug self-test plus a
# fixed-seed pass over every registry protocol seeded with the committed
# regression corpus. Small budget — this is the "still wired up" check;
# the CI fuzz stage and nightly soak carry the real budgets.
./build/xchain-fuzz --self-test --seed=1 --budget-runs=1000 --quiet
./build/xchain-fuzz --seed=1 --budget-runs=500 --quiet \
  --corpus=tests/fuzz_corpus

echo "check.sh: all green"
