#!/bin/sh
# Determinism gate: the parallel replication driver must produce
# byte-identical output whatever --jobs is. Runs a replicated sstsim
# experiment (and a replicated bench) at jobs=1 and jobs=8 and diffs the
# results. Part of the tier-1 flow alongside ctest (the same gate also runs
# inside ctest as sstsim_determinism_jobs).
#
# Usage: tools/check_determinism.sh [build-dir]   (default: build)
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir=${1:-"$repo_root/build"}
sstsim="$build_dir/tools/sstsim"
bench="$build_dir/bench/bench_fig5_two_queue"
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

[ -x "$sstsim" ] || { echo "missing $sstsim — build first" >&2; exit 1; }

args="--variant=feedback --lambda-kbps=12 --mu-data-kbps=42 --mu-fb-kbps=12 \
      --loss=0.25 --receivers=2 --duration=400 --warmup=50 --seed=7 \
      --replications=8"
# shellcheck disable=SC2086
"$sstsim" $args --jobs=1 > "$work/sim1.txt"
# shellcheck disable=SC2086
"$sstsim" $args --jobs=8 > "$work/sim8.txt"
diff "$work/sim1.txt" "$work/sim8.txt" > /dev/null || {
  echo "FAIL: sstsim output differs between --jobs=1 and --jobs=8" >&2
  diff "$work/sim1.txt" "$work/sim8.txt" >&2 || true
  exit 1
}
echo "sstsim: jobs=1 and jobs=8 byte-identical"

# Hostile-channel determinism: the reorder/dup/partition pipelines draw from
# forked Rng streams, so replicated runs must stay byte-identical across
# --jobs too — on both the forward and feedback paths, sensor profile
# included (the workload most sensitive to delivery order).
hostile_args="--variant=feedback --profile=sensor --lambda-kbps=10 \
      --mu-data-kbps=42 --mu-fb-kbps=12 --loss=0.1 --receivers=3 \
      --duration=400 --warmup=50 --seed=11 --replications=8 \
      --hostile=reorder=0.3:0.2;dup=0.2:0.5;partition=120:150 \
      --fb-hostile=dup=0.1"
# shellcheck disable=SC2086
"$sstsim" $hostile_args --jobs=1 > "$work/hostile1.txt"
# shellcheck disable=SC2086
"$sstsim" $hostile_args --jobs=8 > "$work/hostile8.txt"
diff "$work/hostile1.txt" "$work/hostile8.txt" > /dev/null || {
  echo "FAIL: hostile sstsim output differs between --jobs=1 and --jobs=8" >&2
  diff "$work/hostile1.txt" "$work/hostile8.txt" >&2 || true
  exit 1
}
echo "sstsim hostile: jobs=1 and jobs=8 byte-identical"

# Sharded engine: splitting ONE replication across K worker threads must be
# as invisible as the replication fan-out — byte-identical output for any
# --shards, composed with any --jobs (the full K x jobs matrix also runs in
# ctest as sstsim_determinism_shards).
shard_args="--variant=feedback --lambda-kbps=12 --mu-data-kbps=42 \
      --mu-fb-kbps=12 --loss=0.25 --receivers=8 --delay=0.05 --duration=400 \
      --warmup=50 --seed=7 --replications=8"
# shellcheck disable=SC2086
"$sstsim" $shard_args --shards=1 --jobs=1 > "$work/shard_ref.txt"
for k in 2 4 8; do
  # shellcheck disable=SC2086
  "$sstsim" $shard_args --shards=$k --jobs=8 > "$work/shard_$k.txt"
  diff "$work/shard_ref.txt" "$work/shard_$k.txt" > /dev/null || {
    echo "FAIL: sstsim output differs between --shards=1 and --shards=$k" >&2
    diff "$work/shard_ref.txt" "$work/shard_$k.txt" >&2 || true
    exit 1
  }
done
echo "sstsim sharded: shards in {1,2,4,8} x jobs byte-identical"

# Multicast feedback shards too: the shared NACK group is root-hosted and
# replayed through the epoch log, so SRM slotting and cross-shard damping
# must survive the split bitwise.
mcast_args="--variant=feedback --lambda-kbps=12 --mu-data-kbps=42 \
      --mu-fb-kbps=12 --loss=0.25 --receivers=8 --delay=0.05 \
      --multicast-fb --slot=0.1 --duration=400 --warmup=50 --seed=7 \
      --replications=8"
# shellcheck disable=SC2086
"$sstsim" $mcast_args --shards=1 --jobs=1 > "$work/mcast_ref.txt"
for k in 2 4 8; do
  # shellcheck disable=SC2086
  "$sstsim" $mcast_args --shards=$k --jobs=8 > "$work/mcast_$k.txt"
  diff "$work/mcast_ref.txt" "$work/mcast_$k.txt" > /dev/null || {
    echo "FAIL: multicast output differs between --shards=1 and --shards=$k" >&2
    diff "$work/mcast_ref.txt" "$work/mcast_$k.txt" >&2 || true
    exit 1
  }
done
echo "sstsim multicast sharded: shards in {1,2,4,8} byte-identical"

# The same at a few hundred receivers: every data send and every group NACK
# then fans out across all shard slices, one batch per arrival instant.
mcast_wide_args="--variant=feedback --lambda-kbps=15 --mu-data-kbps=45 \
      --mu-fb-kbps=64 --loss=0.1 --receivers=200 --delay=0.05 \
      --multicast-fb --slot=1.0 --duration=60 --warmup=5 --seed=7 \
      --replications=2"
# shellcheck disable=SC2086
"$sstsim" $mcast_wide_args --shards=1 --jobs=1 > "$work/mcast_wide_ref.txt"
for k in 2 4 8; do
  # shellcheck disable=SC2086
  "$sstsim" $mcast_wide_args --shards=$k --jobs=2 > "$work/mcast_wide_$k.txt"
  diff "$work/mcast_wide_ref.txt" "$work/mcast_wide_$k.txt" > /dev/null || {
    echo "FAIL: 200-receiver multicast output differs between --shards=1 and --shards=$k" >&2
    diff "$work/mcast_wide_ref.txt" "$work/mcast_wide_$k.txt" >&2 || true
    exit 1
  }
done
echo "sstsim 200-receiver multicast sharded: shards in {1,2,4,8} byte-identical"

# Faulted runs shard too: every injector instant (fault starts/ends,
# consistency sampler ticks) is fence-snapped onto a barrier, so the whole
# recovery report must match the single-queue engine bitwise. The plan
# includes a join at the warm-up cutoff (the reset instant) and a leave and
# a join at one instant, where the E[c] segment close is zero-width.
fault_args="--variant=feedback --lambda-kbps=12 --mu-data-kbps=42 \
      --mu-fb-kbps=12 --loss=0.25 --receivers=8 --delay=0.05 \
      --duration=400 --warmup=50 --seed=7 --replications=8 \
      --faults=join@50;crash@150+30;partition:2@220+40;burst:0.5@300+30;leave:1@360;leave:3@370;join@370"
# shellcheck disable=SC2086
"$sstsim" $fault_args --shards=1 --jobs=1 > "$work/fault_ref.txt"
for k in 2 4 8; do
  # shellcheck disable=SC2086
  "$sstsim" $fault_args --shards=$k --jobs=8 > "$work/fault_$k.txt"
  diff "$work/fault_ref.txt" "$work/fault_$k.txt" > /dev/null || {
    echo "FAIL: faulted output differs between --shards=1 and --shards=$k" >&2
    diff "$work/fault_ref.txt" "$work/fault_$k.txt" >&2 || true
    exit 1
  }
done
echo "sstsim faulted sharded: shards in {1,2,4,8} byte-identical"

# Fluid and hybrid backends: the mean-field tier is pure arithmetic (no RNG
# in the fluid path, forked Rng streams in the hybrid's discrete cohort), so
# byte-identical output across --jobs is the same hard contract.
for backend in fluid hybrid; do
  fluid_args="--variant=feedback --backend=$backend --lambda-kbps=12 \
        --mu-data-kbps=42 --mu-fb-kbps=12 --loss=0.25 --receivers=2 \
        --duration=400 --warmup=50 --seed=7 --replications=8"
  # shellcheck disable=SC2086
  "$sstsim" $fluid_args --jobs=1 > "$work/${backend}_1.txt"
  # shellcheck disable=SC2086
  "$sstsim" $fluid_args --jobs=8 > "$work/${backend}_8.txt"
  diff "$work/${backend}_1.txt" "$work/${backend}_8.txt" > /dev/null || {
    echo "FAIL: sstsim --backend=$backend differs between --jobs=1 and --jobs=8" >&2
    diff "$work/${backend}_1.txt" "$work/${backend}_8.txt" >&2 || true
    exit 1
  }
  echo "sstsim --backend=$backend: jobs=1 and jobs=8 byte-identical"
done

if [ -x "$bench" ]; then
  "$bench" --reps=8 --jobs=1 --out="$work/b1.json" > /dev/null
  "$bench" --reps=8 --jobs=8 --out="$work/b8.json" > /dev/null
  diff "$work/b1.json" "$work/b8.json" > /dev/null || {
    echo "FAIL: bench_fig5_two_queue JSON differs between jobs=1 and jobs=8" >&2
    exit 1
  }
  echo "bench_fig5_two_queue: jobs=1 and jobs=8 byte-identical"
fi

echo "determinism check passed"
