#!/usr/bin/env bash
# Sanitizer gate for the concurrent read path: builds the asan
# (Debug + ASan/UBSan) and tsan presets and runs the test suite under both.
# Usage: scripts/check.sh [asan|tsan|all]   (default: all)
set -euo pipefail
cd "$(dirname "$0")/.."

want="${1:-all}"
jobs="$(nproc 2>/dev/null || echo 2)"

run_preset() {
  local preset="$1"
  echo "=== ${preset}: configure + build + ctest ==="
  cmake --preset "${preset}"
  cmake --build --preset "${preset}" -j "${jobs}"
  ctest --preset "${preset}" -j "${jobs}"
  # Tests that cross threads by design carry the `concurrent` ctest label
  # (tests/CMakeLists.txt); run them again on their own so a filtered or
  # stale test list can never skip the reason this gate exists.
  echo "=== ${preset}: concurrent-label focus ==="
  ctest --preset "${preset}" -L concurrent --output-on-failure
  echo "=== ${preset}: sql shell smoke (distributed) ==="
  scripts/sql_shell_smoke.sh "build-${preset}"
}

case "${want}" in
  asan) run_preset asan ;;
  tsan) run_preset tsan ;;
  all)
    run_preset asan
    run_preset tsan
    ;;
  *)
    echo "usage: $0 [asan|tsan|all]" >&2
    exit 2
    ;;
esac
echo "OK: ${want} checks passed"
