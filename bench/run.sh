#!/usr/bin/env bash
# Builds the fleet benchmark from source and runs it, keeping every
# build artefact inside .bench_build/ of the directory it is started in
# (the repository root). Arguments go to "bench run", for example:
#
#   bash bench/run.sh --workload smoke-cold --seed 1 --seconds 20 --trace 0
#
# The benchmark module replaces "repro" with the enclosing repository,
# so without the repository's sources the build fails and nothing is
# measured.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOENV=off
(cd "$root/bench" && go build -o "$out/fleetbench" .)
exec "$out/fleetbench" run -workdir "$out" "$@"
