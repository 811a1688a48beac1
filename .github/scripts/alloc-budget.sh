#!/bin/sh
# alloc-budget.sh <workload> <max allocs> [<max bytes>]: runs one benchmark
# workload for three seconds and fails when its end-to-end allocs_per_unit
# (allocations per customer settled or meter reading ingested) is above
# <max allocs>, or, when <max bytes> is given, its alloc_bytes_per_unit is
# above that — both read from the one result line of the same program that
# measured the budgets, not from a proxy.
set -eu
[ $# -eq 2 ] || [ $# -eq 3 ] || { echo "usage: $0 <workload> <max allocs_per_unit> [<max alloc_bytes_per_unit>]" >&2; exit 2; }
cd "$(dirname "$0")/../.."
workload=$1
result=$(go run ./bench -workload "$workload" -seconds 3 | tail -n 1)
# check <metric> <max>
check() {
	got=$(printf '%s\n' "$result" | sed -n 's/.*"'"$1"'":{"value":\([0-9.eE+-]*\).*/\1/p')
	if [ -z "$got" ]; then
		echo "alloc-budget: no $1 in the last line of bench output: $result" >&2
		exit 2
	fi
	echo "alloc-budget: $workload $1 = $got (budget $2)"
	awk -v got="$got" -v max="$2" 'BEGIN { exit !(got <= max) }' || {
		echo "alloc-budget: $workload is over its budget of $2 $1" >&2
		exit 1
	}
}
check allocs_per_unit "$2"
[ $# -lt 3 ] || check alloc_bytes_per_unit "$3"
