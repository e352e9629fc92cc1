#!/bin/sh
# Thread-safety analysis gate (ctest label `lint`). Proves two things with
# a real Clang:
#
#   1. The annotated tree is CLEAN: a fresh SST_ANALYZE=ON configure+build
#      of the src/ libraries must produce zero -Wthread-safety diagnostics
#      (they are -Werror, so any diagnostic fails the build).
#   2. The analysis has TEETH: tools/analyze_fixtures/annotate_violation.cpp
#      deliberately touches SST_ROOT_ONLY state from an unannotated
#      function and MUST fail to compile, while annotate_ok.cpp (the same
#      access with the role properly required) must compile. A gate that
#      cannot reject the bad fixture would pass vacuously — e.g. if the
#      macros silently stopped lowering to Clang attributes.
#
# Skips with 77 (ctest SKIP_RETURN_CODE) when no Clang toolchain is
# installed: the annotations expand to nothing under GCC, so there is
# nothing to check — sstlint's textual fence/ownership rules still run there.
#
# usage: check_analyze.sh [BUILD_DIR]   (scratch tree, default
#        build-analyze next to the regular build)
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir=${1:-"$repo_root/build-analyze"}

clangxx=""
for c in clang++ clang++-20 clang++-19 clang++-18 clang++-17 clang++-16; do
  if command -v "$c" > /dev/null 2>&1; then
    clangxx=$c
    break
  fi
done
if [ -z "$clangxx" ]; then
  echo "SKIP: no clang++ on PATH (thread-safety analysis is Clang-only)" >&2
  exit 77
fi
command -v cmake > /dev/null 2>&1 || {
  echo "SKIP: cmake not available" >&2
  exit 77
}

echo "== configure (SST_ANALYZE=ON, $clangxx)"
cmake -S "$repo_root" -B "$build_dir" \
      -DCMAKE_CXX_COMPILER="$clangxx" \
      -DSST_ANALYZE=ON \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null

echo "== build src/ with -Werror=thread-safety"
# The src libraries carry every annotation; tests/bench are exempt by
# design, so building the core targets is the whole clean-tree proof.
cmake --build "$build_dir" --target \
      sst_check sst_sim sst_net sst_sched sst_stats sst_analysis sst_core

flags="-std=c++20 -I$repo_root/src -Wthread-safety -Werror=thread-safety \
       -fsyntax-only"

echo "== good fixture must compile"
# shellcheck disable=SC2086
"$clangxx" $flags "$repo_root/tools/analyze_fixtures/annotate_ok.cpp"

echo "== bad fixture must be rejected"
# shellcheck disable=SC2086
if "$clangxx" $flags \
     "$repo_root/tools/analyze_fixtures/annotate_violation.cpp" \
     2> "$build_dir/annotate_violation.log"; then
  echo "FAIL: annotate_violation.cpp compiled clean — the thread-safety" \
       "annotations are not reaching the compiler" >&2
  exit 1
fi
if ! grep -q "thread-safety" "$build_dir/annotate_violation.log"; then
  echo "FAIL: annotate_violation.cpp failed for a reason other than" \
       "thread-safety analysis:" >&2
  cat "$build_dir/annotate_violation.log" >&2
  exit 1
fi
echo "violation reported, as required:"
grep -m 2 "warning\|error" "$build_dir/annotate_violation.log" | sed 's/^/  /'

echo "check_analyze clean"
