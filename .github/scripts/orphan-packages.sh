#!/bin/sh
# Fails when an internal/... package is reachable from neither a binary
# (./cmd/...), the root facade, ./bench, an example, nor a test of a package
# that is: such a package is dead weight — wire it in or delete it.
#
# Also fails when a production binary links the inference stack. internal/kb,
# internal/desire and internal/desiremodel are the paper's Figure 4/5
# reference specification: tests and ./bench reach them, to hold production
# equal to them and to time them; gridd, loadsim, experiments and gridctl must
# not.
#
# Also fails when a Go file outside bench/ declares a benchmark: `go run
# ./bench` is the one thing that times the grid.
set -eu
cd "$(dirname "$0")/../.."
module=$(go list -m)
reach=$(go list ./cmd/... . ./bench ./examples/... | sort -u)
while :; do
	# Dependencies of the reachable packages and of their tests, within the module.
	next=$(go list -deps -test $reach | sed 's/ \[.*//' | grep -v '[._]test$' | grep "^$module" | sort -u)
	[ "$next" = "$reach" ] && break
	reach=$next
done
status=0
for pkg in $(go list ./internal/...); do
	if ! printf '%s\n' "$reach" | grep -qx "$pkg"; then
		echo "orphan package: $pkg is imported by no binary, facade, benchmark, example or reachable test" >&2
		status=1
	fi
done
for pkg in $(go list -deps ./cmd/gridd ./cmd/loadsim ./cmd/experiments ./cmd/gridctl | grep -E "^$module/internal/(kb|desire|desiremodel)$"); do
	echo "reference specification in a production binary: $pkg is linked by gridd, loadsim, experiments or gridctl; it may be imported from tests and ./bench only" >&2
	status=1
done
if found=$(grep -rnE --include='*.go' 'func Benchmark|testing\.Benchmark\(' . | grep -v '^\./bench/'); then
	printf '%s\n' "$found" >&2
	echo "benchmark outside bench/: what times the grid is a probe in bench/ (go run ./bench), not a Benchmark function" >&2
	status=1
fi
exit $status
