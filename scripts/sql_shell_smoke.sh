#!/usr/bin/env bash
# End-to-end smoke of the distributed SQL path: pipes a scripted
# CREATE/INSERT/ANALYZE/EXPLAIN/SELECT session into the interactive shell
# running over a 4-DN simulated cluster and greps the output for the
# physical plan (scan path, join strategy, partial/final aggregation) and
# the distributed result annotation, then replays a DROP/re-CREATE and a
# duplicate-key INSERT in a second session. Catches wiring regressions that
# unit tests of the layers individually would miss.
# Usage: scripts/sql_shell_smoke.sh [build-dir]   (default: build-release)
set -euo pipefail
cd "$(dirname "$0")/.."

build="${1:-build-release}"
shell="${build}/examples/example_sql_shell"
if [[ ! -x "${shell}" ]]; then
  echo "error: ${shell} not built" >&2
  exit 2
fi

out="$("${shell}" --distributed=4 <<'SQL'
CREATE TABLE orders (o_id BIGINT, cust BIGINT, amount BIGINT);
CREATE TABLE customers (c_id BIGINT, segment VARCHAR);
INSERT INTO orders VALUES (1, 10, 120), (2, 11, 30), (3, 10, 500),
                          (4, 12, 80), (5, 11, 260), (6, 13, 90);
INSERT INTO customers VALUES (10, 'gold'), (11, 'silver'), (12, 'gold');
\analyze
EXPLAIN SELECT segment, COUNT(*) AS n, SUM(amount) AS total
  FROM orders JOIN customers ON cust = c_id
  WHERE amount > 50 GROUP BY segment;
SELECT segment, COUNT(*) AS n, SUM(amount) AS total
  FROM orders JOIN customers ON cust = c_id
  WHERE amount > 50 GROUP BY segment;
\columnar orders
EXPLAIN SELECT cust, SUM(amount) AS total
  FROM orders WHERE amount > 50 GROUP BY cust;
SELECT cust, SUM(amount) AS total
  FROM orders WHERE amount > 50 GROUP BY cust;
\q
SQL
)"

fail=0
expect() {
  if ! grep -qE "$1" <<<"${out}"; then
    echo "MISSING: $1" >&2
    fail=1
  fi
}

# The physical plan: final/partial agg split, hash join with a
# stats-chosen strategy, row-path scans with the pushed-down predicate.
expect "DISTRIBUTED PLAN \(over 4 DNs\)"
expect "FINALAGG"
expect "PARTIALAGG"
# The join planner may put either table on the build side.
expect "HASHJOIN (cust = c_id|c_id = cust) strategy=(broadcast|repartition)"
expect "DISTSCAN orders path=row pred=\[amount>50\]"
expect "DISTSCAN customers path=row"
# The query actually ran distributed and returned the right values:
# gold -> 3 rows (120+500+80=700), silver -> 1 row (260).
expect "2 rows, distributed over 4 DNs, sim_latency_us="
expect "'gold' \| 3 \| 700"
expect "'silver' \| 1 \| 260"
# Grouped-kernel columnar path: EXPLAIN advertises the vectorized GROUP BY
# with its per-DN scan forecast, and the executed query reports the
# realized per-DN columnar scan (no row fallback) with correct sums.
expect "DISTSCAN orders path=columnar scan=columnar\(grouped-kernel\)"
expect "scan forecast:"
expect "dn[0-9]+ orders: columnar\(grouped-kernel\) chunks="
expect "4 rows, distributed over 4 DNs, sim_latency_us="
expect "10 \| 620"
expect "11 \| 260"
expect "12 \| 80"
expect "13 \| 90"

# DDL/DML regressions, in a fresh session: DROP TABLE must free the name
# on the DNs too (the re-CREATE prints ok and starts empty), and a failing
# INSERT must not leave the CN mirror ahead of the DNs (the single-node
# fallback and the lowered scan return the same row count).
ddl_out="$("${shell}" --distributed=4 <<'SQL'
CREATE TABLE t (k BIGINT, v BIGINT);
INSERT INTO t VALUES (1, 10), (2, 20), (3, 30);
DROP TABLE t;
CREATE TABLE t (k BIGINT, v BIGINT);
SELECT k, v FROM t;
INSERT INTO t VALUES (1, 10), (2, 20);
INSERT INTO t VALUES (1, 99);
SELECT k, v FROM t;
SELECT k, v FROM t UNION ALL SELECT k, v FROM t WHERE k < 0;
\q
SQL
)"
expect_ddl() {
  if ! grep -qE "$1" <<<"${ddl_out}"; then
    echo "MISSING: $1" >&2
    fail=1
  fi
}
# CREATE, INSERT, DROP, re-CREATE and the second INSERT each print ok.
if [[ "$(grep -c '^ok$' <<<"${ddl_out}")" -ne 5 ]]; then
  echo "MISSING: five 'ok' lines (DROP TABLE then re-CREATE)" >&2
  fail=1
fi
expect_ddl "0 rows, distributed over 4 DNs"
expect_ddl "error: ALREADY_EXISTS"
expect_ddl "2 rows, distributed over 4 DNs"
expect_ddl "2 rows, single-node fallback"
if grep -q "| 99" <<<"${ddl_out}"; then
  echo "UNEXPECTED: the rejected row (1, 99) is visible" >&2
  fail=1
fi

if [[ "${fail}" -ne 0 ]]; then
  echo "--- shell output ---" >&2
  echo "${out}" >&2
  echo "--- DDL/DML session output ---" >&2
  echo "${ddl_out}" >&2
  echo "FAIL: sql_shell_smoke" >&2
  exit 1
fi
echo "OK: sql_shell_smoke (${build})"
