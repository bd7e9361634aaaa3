#!/usr/bin/env bash
# Fails when a committed BENCH_*.json seed no longer matches what the code
# produces. Reruns four benches into temp files and compares every field
# with the committed seed (Release timings on a 4-vCPU VM):
#   E19 bench_oltp_traffic      BENCH_oltp_traffic.json      about 24 s
#   E20 bench_exchange_pipeline BENCH_exchange_pipeline.json about 5 s
#   E21 bench_htap_freshness    BENCH_htap_freshness.json    about 2 s
#   E22 bench_index_lookup      BENCH_index_lookup.json      about 3 s
#
# Skipped fields, each because it depends on thread timing:
# - E20 `spill_bytes`, every row: the pipelined leg's real spill counter
#   depends on how far the consumer threads happened to lag the producers
#   (two runs of one binary gave 22182 and 8266 bytes on the 8 KiB-cap leg).
#   The simulated latency of those legs charges the deterministic modeled
#   spill instead, so pipelined_us is still compared.
# - E21 `mean_scan_us`, `max_scan_us`, `mean_delta_rows` and `merge_rows`,
#   on `strategy == "delta"` rows only: how many rows a scan finds in the
#   delta tail depends on when the background merges land. The row and
#   rebuild legs, and every other delta field, are compared.
#
# When a change moves a number on purpose, regenerate the seed from a
# Release build in the repo root and commit it with the change, e.g.:
#   <build-dir>/bench/bench_exchange_pipeline --benchmark_filter=nothing
# Usage: scripts/bench_seed_check.sh <build-dir>
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -ne 1 ]]; then
  echo "usage: $0 <build-dir>" >&2
  exit 2
fi
build="$1"
for b in bench_exchange_pipeline bench_oltp_traffic bench_htap_freshness \
    bench_index_lookup; do
  if [[ ! -x "${build}/bench/${b}" ]]; then
    echo "error: ${build}/bench/${b} not built" >&2
    exit 2
  fi
done

tmp="$(mktemp -d)"
trap 'rm -rf "${tmp}"' EXIT

status=0
check() {
  local bench="$1" seed="$2" skip="$3"
  echo "=== ${bench} vs ${seed} ==="
  if ! OFI_BENCH_JSON="${tmp}/${seed}" "${build}/bench/${bench}" \
      --benchmark_filter=nothing > "${tmp}/${bench}.log" 2>&1; then
    cat "${tmp}/${bench}.log"
    echo "FAIL: ${bench} exited non-zero"
    status=1
    return
  fi
  python3 - "${seed}" "${tmp}/${seed}" "${skip}" <<'PY' || status=1
import json, sys

# skip is "[key=value:]field,field,...": the fields are skipped in every
# object, or only in objects whose `key` equals `value`.
committed_path, fresh_path, skip = sys.argv[1], sys.argv[2], sys.argv[3]
cond, _, fields = skip.rpartition(":")
skip_fields = set(fields.split(",")) if fields else set()
cond_key, _, cond_value = cond.partition("=")

def skipped(obj, k):
    return k in skip_fields and (not cond_key or
                                 str(obj.get(cond_key)) == cond_value)


with open(committed_path) as f:
    committed = json.load(f)
with open(fresh_path) as f:
    fresh = json.load(f)
diffs = []

def walk(a, b, path):
    if isinstance(a, dict) and isinstance(b, dict):
        for k in sorted(set(a) | set(b)):
            if skipped(a, k):
                continue
            if k not in a or k not in b:
                diffs.append(f"{path}.{k}: only in "
                             f"{'committed' if k in a else 'fresh run'}")
            else:
                walk(a[k], b[k], f"{path}.{k}")
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            diffs.append(f"{path}: {len(a)} entries committed, {len(b)} now")
        for i, (x, y) in enumerate(zip(a, b)):
            walk(x, y, f"{path}[{i}]")
    elif a != b:
        diffs.append(f"{path}: committed {a!r}, now {b!r}")

walk(committed, fresh, "")
for d in diffs:
    print("  STALE " + d)
if diffs:
    print(f"FAIL: {committed_path} does not match this build "
          f"({len(diffs)} fields); re-seed it (see scripts/bench_seed_check.sh)")
    sys.exit(1)
print(f"ok: {committed_path} matches"
      + (f" (skipped: {skip})" if skip else ""))
PY
}

check bench_exchange_pipeline BENCH_exchange_pipeline.json spill_bytes
check bench_oltp_traffic BENCH_oltp_traffic.json ""
check bench_htap_freshness BENCH_htap_freshness.json \
  "strategy=delta:mean_scan_us,max_scan_us,mean_delta_rows,merge_rows"
check bench_index_lookup BENCH_index_lookup.json ""
exit "${status}"
