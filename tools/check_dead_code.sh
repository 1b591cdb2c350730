#!/usr/bin/env bash
# Dead-code census: fails when libpathrank.a defines a pathrank:: function
# that no shipped program links.
#
# It configures perfbench/CMakeLists.txt (the build that makes both the
# CLI and perfbench_inproc) into a scratch directory at -O0 with
# -ffunction-sections, and links with -Wl,--gc-sections: nothing is
# inlined away, and each function the roots do not reach is dropped from
# them. The roots are the programs this repository ships or measures:
# pathrank_cli, perfbench_inproc, the paper-experiment bench_* binaries
# and every example. The Google Benchmark micro-benches are not roots
# (CI does not install the library, and a micro-bench alone must not
# keep library code alive); neither are the tests.
#
# The census is the set difference of `nm -C --defined-only` over
# libpathrank.a and over the roots, restricted to text symbols named in
# pathrank:: (std:: instantiations are the standard library's, not ours).
#
# Allowlist: tools/dead_code_allowlist.txt, lines of
# "<demangled symbol>  # reason", for test oracles and test seams that
# stay in the library on purpose. An entry that no longer shows up in
# the census fails the run, so the list cannot rot.
#
# Usage: tools/check_dead_code.sh [BUILD_DIR]
# BUILD_DIR (default: a temporary directory, removed on exit) is reused
# across runs when given.
set -euo pipefail
export LC_ALL=C

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
ALLOWLIST="$ROOT/tools/dead_code_allowlist.txt"

if [[ $# -ge 1 ]]; then
  BUILD="$1"
else
  BUILD="$(mktemp -d)"
  trap 'rm -rf "$BUILD"' EXIT
fi

roots=(pathrank_cli perfbench_inproc)
for src in "$ROOT"/bench/bench_*.cpp; do
  grep -q 'benchmark/benchmark\.h' "$src" && continue
  roots+=("$(basename "$src" .cpp)")
done
for src in "$ROOT"/examples/*.cpp; do
  roots+=("$(basename "$src" .cpp)")
done

cmake -S "$ROOT/perfbench" -B "$BUILD" \
  -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS_DEBUG=-O0 \
  -DCMAKE_CXX_FLAGS=-ffunction-sections \
  -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections >/dev/null
cmake --build "$BUILD" -j "$(nproc)" --target "${roots[@]}" >/dev/null

# pathrank:: text symbols (global, local and weak), one demangled name a
# line.
pathrank_functions() {
  nm -C --defined-only "$@" 2>/dev/null |
    sed -nE 's/^[0-9a-f]+ [TtWw] //p' |
    awk '{
      # A std:: template instantiation over a pathrank type can print a
      # pathrank:: return type first ("pathrank::X& std::vector<...>::...").
      name = $0
      gsub(/\(anonymous namespace\)/, "", name)
      if (name ~ /^pathrank::/ && name !~ /^pathrank::[^(<]* std::/) print
    }' | sort -u
}

root_files=()
for name in "${roots[@]}"; do
  root_files+=("$(find "$BUILD" -type f -name "$name" -perm -u+x | head -n 1)")
done
library="$(find "$BUILD" -type f -name libpathrank.a | head -n 1)"

library_functions="$(pathrank_functions "$library")"
dead="$(comm -23 <(printf '%s\n' "$library_functions") \
                 <(pathrank_functions "${root_files[@]}"))"
allowed="$(grep -v '^#' "$ALLOWLIST" | sed -E 's/[[:space:]]+#.*$//' |
           grep -v '^$' | sort -u || true)"

failures=0
while IFS= read -r symbol; do
  [[ -z $symbol ]] && continue
  echo "dead-code: no shipped program links: $symbol"
  failures=$((failures + 1))
done < <(comm -23 <(printf '%s\n' "$dead") <(printf '%s\n' "$allowed"))
while IFS= read -r entry; do
  [[ -z $entry ]] && continue
  echo "dead-code: stale allowlist entry (now linked, or gone): $entry"
  failures=$((failures + 1))
done < <(comm -13 <(printf '%s\n' "$dead") <(printf '%s\n' "$allowed"))

total="$(printf '%s\n' "$library_functions" | grep -c .)"
unlinked="$(printf '%s\n' "$dead" | grep -c . || true)"
echo "dead-code: $unlinked of $total pathrank:: functions in libpathrank.a" \
     "are linked by no shipped program (${#roots[@]} roots)"
if [[ $failures -gt 0 ]]; then
  echo "dead-code: $failures problem(s); delete the code or allowlist it" \
       "with a reason in tools/dead_code_allowlist.txt"
  exit 1
fi
echo "dead-code: OK"
