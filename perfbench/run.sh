#!/usr/bin/env bash
# Builds wmcsd and the benchmark program from the checkout this script sits
# in, then runs the benchmark. Run it from the repository root:
#
#   bash perfbench/run.sh --workload uniform --seed 1 --seconds 10 --trace 0
#
# Every build product, Go cache and result file lands under .bench_build/
# at the root, so the benchmark writes nothing outside the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/wmcsd" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (need go.mod, cmd/wmcsd and perfbench/)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOENV=off
export GOFLAGS=
export GOWORK=off
export CGO_ENABLED=0

go build -o "$build/bin/wmcsd" ./cmd/wmcsd >&2
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .) >&2

exec "$build/bin/perfbench" -wmcsd "$build/bin/wmcsd" -out "$build/results" "$@"
