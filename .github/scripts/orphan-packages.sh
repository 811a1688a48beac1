#!/bin/sh
# Fails when an internal/... package is reachable from neither a binary
# (./cmd/...), the root facade, ./bench, an example, nor a test of a package
# that is: such a package is dead weight — wire it in or delete it.
#
# Also fails when a production binary links the inference stack. internal/kb,
# internal/desire and internal/desiremodel are the paper's Figure 4/5
# reference specification: tests, ./bench and cmd/benchrec reach them, to hold
# production equal to them and to time them; gridd, loadsim, experiments and
# gridctl must not.
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
	echo "reference specification in a production binary: $pkg is linked by gridd, loadsim, experiments or gridctl; it may be imported from tests, ./bench and cmd/benchrec only" >&2
	status=1
done
exit $status
