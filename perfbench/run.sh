#!/usr/bin/env bash
# Builds the benchmark harness and the sgserve/sgproxy binaries it
# drives from the sources of the checkout it is run in, then runs the
# harness with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload kernel --seed 1 --seconds 10 --trace 0
#
# Everything it builds or writes goes under .bench_build/ in the
# checkout: binaries, the Go build cache and the harness's scratch files.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/sgserve" || ! -d "$root/cmd/sgproxy" ]]; then
	echo "perfbench: run from the repository root: go.mod, cmd/sgserve and cmd/sgproxy are missing here" >&2
	exit 2
fi

out="$root/.bench_build"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
mkdir -p "$out/bin" "$out/tmp"

go build -o "$out/bin/" ./cmd/sgserve ./cmd/sgproxy
(cd "$here" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/work" "$@"
