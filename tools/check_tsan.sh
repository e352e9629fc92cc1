#!/bin/sh
# Builds the tree with ThreadSanitizer and runs the tier-1 test suite under
# the instrumented runtime — the gate for the parallel replication driver
# (sst::runner), the threaded fault-churn tests, and the sharded
# conservative-lookahead engine (whose barrier + mailbox protocol is exactly
# what TSan exists to audit; sharded_test plus the dedicated stress run
# below cover it). Any data-race report fails the corresponding test
# (halt_on_error) and therefore the script.
#
# Usage: tools/check_tsan.sh [build-dir]   (default: build-tsan)
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir=${1:-"$repo_root/build-tsan"}

cmake -B "$build_dir" -S "$repo_root" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  "-DSST_SANITIZE=thread"
cmake --build "$build_dir" -j "$(nproc 2>/dev/null || echo 4)"

# The perf-smoke label (bench_regression_smoke) is a wall-clock gate: it
# means nothing on an instrumented build, and under TSan it runs into its
# timeout, after which `set -e` would skip the stress runs below.
TSAN_OPTIONS="halt_on_error=1" \
  ctest --test-dir "$build_dir" --output-on-failure -LE perf-smoke \
        -j "$(nproc 2>/dev/null || echo 4)"

# Sharded-engine stress: an 8-shard feedback session composed with the
# replication fan-out, so TSan sees root/worker epoch phases, the mailbox
# drains, and the shards x jobs thread pool all at once.
TSAN_OPTIONS="halt_on_error=1" \
  "$build_dir/tools/sstsim" --variant=feedback --lambda-kbps=12 \
    --mu-data-kbps=42 --mu-fb-kbps=12 --loss=0.25 --receivers=64 \
    --delay=0.05 --duration=120 --warmup=20 --seed=7 \
    --shards=8 --replications=4 --jobs=2 > /dev/null

# The same 8-shard crew through the new lanes: the root-hosted multicast
# NACK group (epoch-log replay of overheard NACKs into every shard) and
# fence-snapped fault-injector hooks mutating shard state mid-run, churn
# included.
TSAN_OPTIONS="halt_on_error=1" \
  "$build_dir/tools/sstsim" --variant=feedback --lambda-kbps=12 \
    --mu-data-kbps=42 --mu-fb-kbps=12 --loss=0.25 --receivers=64 \
    --delay=0.05 --multicast-fb --slot=0.1 --duration=120 --warmup=20 \
    --seed=7 --shards=8 --replications=4 --jobs=2 \
    --faults='crash@40+10;partition:3@60+10;leave:2@80;join@90' > /dev/null

echo "tsan check passed: $build_dir"
