#!/bin/sh
# alloc-budget.sh <workload> <max>: runs one benchmark workload for three
# seconds and fails when its end-to-end allocs_per_unit (allocations per
# customer settled or meter reading ingested) is above <max> — the count is
# read from the same program that measured the budget, not from a proxy.
set -eu
[ $# -eq 2 ] || { echo "usage: $0 <workload> <max allocs_per_unit>" >&2; exit 2; }
cd "$(dirname "$0")/../.."
result=$(go run ./bench -workload "$1" -seconds 3 | tail -n 1)
got=$(printf '%s\n' "$result" | sed -n 's/.*"allocs_per_unit":{"value":\([0-9.eE+-]*\).*/\1/p')
if [ -z "$got" ]; then
	echo "alloc-budget: no allocs_per_unit in the last line of bench output: $result" >&2
	exit 2
fi
echo "alloc-budget: $1 allocs_per_unit = $got (budget $2)"
awk -v got="$got" -v max="$2" 'BEGIN { exit !(got <= max) }' || {
	echo "alloc-budget: $1 is over its budget of $2 allocations per unit" >&2
	exit 1
}
