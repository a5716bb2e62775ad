#!/usr/bin/env bash
# Builds the sign-off benchmark from the checkout it sits in and runs it with
# the given arguments. Run it from the repository root:
#
#   bash signoffbench/run.sh --workload signoff-cold --seed 1 --seconds 20 --trace 0
#
# Every file the build and the run write stays under .bench_build (or
# $CARGO_TARGET_DIR when set) in the current directory: Go's build cache,
# its temporary files, the binary and the benchmark's result caches.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$PWD/$out ;;
esac
mkdir -p "$out/tmp" "$out/config"

export GOCACHE=$out/go-cache GOTMPDIR=$out/tmp TMPDIR=$out/tmp \
	GOPATH=$out/gopath GOMODCACHE=$out/gopath/pkg/mod XDG_CONFIG_HOME=$out/config \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
(cd "$here" && go build -buildvcs=false -o "$out/signoffbench" .)
exec "$out/signoffbench" "$@"
