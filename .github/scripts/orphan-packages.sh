#!/bin/sh
# Fails when an internal/... package is reachable from neither a binary
# (./cmd/...), the root facade, ./bench, an example, nor a test of a package
# that is: such a package is dead weight — wire it in or delete it.
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
exit $status
