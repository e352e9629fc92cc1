#!/bin/sh
# Static-analysis gate (ctest label `lint`). Modes:
#
#   --sstlint            repo-specific determinism/concurrency analyzer
#                        (tools/sstlint.py, all 13 rules): self-test the
#                        rules against tools/lint_fixtures/, then scan src/,
#                        bench/ and examples/ and audit the suppression
#                        allowlist (tools/sstlint_allowlist.txt) for drift.
#   --compile-db [BUILD] the same audited scan (with --stats), restricted to
#                        the translation units of BUILD/compile_commands.json
#                        when present (a plain tree walk otherwise).
#   --malformed-db       failure-mode check: a malformed compile_commands
#                        file must be a readable HARD failure (exit 2 and a
#                        message naming the file), never a silent empty scan.
#   --clang-tidy [BUILD] curated .clang-tidy set over src/ translation
#                        units, using BUILD/compile_commands.json
#                        (default build dir: build).
#
# With no mode flag, runs both sstlint scans (and clang-tidy softly, with a
# note when the binary is missing). Each mode is registered as its own ctest
# entry so a missing tool skips (exit 77 via SKIP_RETURN_CODE) instead of
# failing tier-1, exactly like tools/check_bench.sh.
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
mode=${1:---all}
build_dir=${2:-"$repo_root/build"}

need_python() {
  command -v python3 > /dev/null 2>&1 || {
    echo "SKIP: python3 not available for sstlint" >&2
    exit 77
  }
}

run_sstlint() {
  need_python
  python3 "$repo_root/tools/sstlint.py" --self-test
  python3 "$repo_root/tools/sstlint.py" --repo "$repo_root" --audit
}

run_compile_db() {
  need_python
  if [ -f "$build_dir/compile_commands.json" ]; then
    python3 "$repo_root/tools/sstlint.py" --repo "$repo_root" --audit --stats \
      --compile-commands "$build_dir/compile_commands.json"
  else
    python3 "$repo_root/tools/sstlint.py" --repo "$repo_root" --audit --stats
  fi
}

run_malformed_db() {
  need_python
  set +e
  out=$(python3 "$repo_root/tools/sstlint.py" --repo "$repo_root" \
    --compile-commands "$repo_root/tools/lint_fixtures/bad_compile_commands.json" \
    2>&1)
  status=$?
  set -e
  echo "$out"
  if [ "$status" -ne 2 ]; then
    echo "FAIL: malformed compile_commands exited $status" \
         "(want the hard-failure exit 2)" >&2
    exit 1
  fi
  case "$out" in
    *"malformed compile_commands"*) echo "malformed-db failure mode ok" ;;
    *)
      echo "FAIL: the error message does not name the malformed" \
           "compile_commands file" >&2
      exit 1
      ;;
  esac
}

run_clang_tidy() {
  soft=${1:-hard}
  if ! command -v clang-tidy > /dev/null 2>&1; then
    echo "SKIP: clang-tidy not installed" >&2
    [ "$soft" = soft ] && return 0
    exit 77
  fi
  if [ ! -f "$build_dir/compile_commands.json" ]; then
    echo "SKIP: $build_dir/compile_commands.json missing (configure with" \
         "CMAKE_EXPORT_COMPILE_COMMANDS=ON)" >&2
    [ "$soft" = soft ] && return 0
    exit 77
  fi
  # Sources only: headers are covered through HeaderFilterRegex.
  find "$repo_root/src" -name '*.cpp' | sort | \
    xargs clang-tidy -p "$build_dir" --quiet
  echo "clang-tidy clean"
}

case "$mode" in
  --sstlint)      run_sstlint ;;
  --compile-db)   run_compile_db ;;
  --malformed-db) run_malformed_db ;;
  --clang-tidy)   run_clang_tidy hard ;;
  --all)          run_sstlint; run_compile_db; run_clang_tidy soft ;;
  *)
    echo "usage: $0 [--sstlint | --compile-db [build-dir] | --malformed-db |" \
         "--clang-tidy [build-dir] | --all]" >&2
    exit 2
    ;;
esac
