#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs one workload:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build and the run write (Go build cache, the binary,
# out-of-core store scratch, span files) stays under .bench_build/ at
# the root of the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="${root}/.bench_build"
mkdir -p "${out}/home"
export HOME="${out}/home"
export XDG_CONFIG_HOME="${out}/home/.config"
export XDG_CACHE_HOME="${out}/home/.cache"
export GOCACHE="${out}/gocache"
export GOMODCACHE="${out}/gomod"
export GOPATH="${out}/gopath"
export GOTMPDIR=""
export GOFLAGS="-mod=mod"
export GOPROXY=off
export GOTOOLCHAIN=local
export GOTELEMETRY=off
cd "${root}/perfbench"
go build -o "${out}/perfbench" .
cd "${root}"
exec "${out}/perfbench" -out "${out}" "$@"
