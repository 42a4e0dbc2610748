#!/usr/bin/env bash
# Builds skelrund, skelworker and the perfbench program from the checkout it
# is started in, then runs perfbench:
#
#	bash perfbench/run.sh --workload tiny-durable --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything it builds or writes goes under
# .bench_build/ in that root (Go build cache included).
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/skelrund" ] || [ ! -d "$root/perfbench" ]; then
	echo "run.sh: no skandium source tree here; run from the repository root" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/xdg"
export GOCACHE="$out/go-cache" GOPATH="$out/gopath" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/xdg"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= GOTELEMETRY=off
go build -o "$out/bin/skelrund" ./cmd/skelrund
go build -o "$out/bin/skelworker" ./cmd/skelworker
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/run" "$@"
