#!/usr/bin/env bash
# Banned-pattern linter: greps the C++ tree for constructs this codebase
# has decided are always bugs-in-waiting and fails (non-zero exit, one
# line per offender) when any appears outside the allowlist. Registered
# as the `banned_pattern_check` ctest and run by the CI static-analysis
# job; docs/static_analysis.md has the rationale per rule.
#
# Rules:
#   numeric-parse   raw std::stoi/atoi/strtol/strtod & family anywhere
#                   but src/common/parse.* (their home). They half-parse
#                   ("12abc" -> 12), wrap or saturate on overflow, and
#                   the sto* family throws bare exceptions; common/parse
#                   is the whole-token, overflow-checked replacement.
#   raw-random      rand()/srand() or std::random_device in library code
#                   (src/). Every draw in this repo must be seeded and
#                   reproducible (common/rng, splitmix64 counters) —
#                   nondeterminism breaks the bitwise-equality tests.
#   naked-new       `new` / `delete` expressions in src/serving. The
#                   serving layer is exception-heavy (deadlines, faults,
#                   shed paths); ownership goes through smart pointers
#                   and containers only.
#   locked-sleep    std::this_thread::sleep_for while a lock guard is in
#                   scope. Sleeping under a mutex turns a pause into a
#                   pile-up; injected fault delays must run unlocked.
#   raw-sync        std::mutex / lock_guard / unique_lock / scoped_lock /
#                   shared_lock / condition_variable in src/ outside
#                   common/thread_annotations.h (their one home). Locking
#                   must go through the annotated wrappers (common::Mutex
#                   & friends) or it is invisible to BOTH deadlock-freedom
#                   proofs: clang's thread-safety analysis and the
#                   PATHRANK_DEBUG_LOCK_RANK runtime checker
#                   (common/lock_rank.h). std::once_flag/call_once stay
#                   legal — they hold no user-visible lock.
#   raw-stderr      fprintf(stderr, ...), std::cerr, std::cout and bare
#                   printf()/puts() in src/ outside common/logging.*.
#                   Library diagnostics go through common/logging
#                   (PR_LOG_*): leveled, prefixed, one framed line each,
#                   and silenced by the same level switch as the rest.
#   pool-size       GetNumThreads( in src/ outside common/thread_pool.*.
#                   Sizing shards, Rng streams or reductions by the
#                   thread count makes a result depend on
#                   PATHRANK_THREADS; a parallel loop goes through
#                   ParallelFor with a body whose output does not depend
#                   on the chunking. A caller whose use
#                   never changes a result is allowlisted with its reason.
#   activation      std::exp / std::tanh (and the bare exp, expf, tanh,
#                   tanhf calls) in src/nn/ and src/core/ outside
#                   src/nn/matrix.cpp. The model's activations live in
#                   SigmoidInPlace and TanhInPlace there, so training and
#                   inference share one definition of each and a faster
#                   or different activation is a one-file change.
#
# Allowlist: tools/banned_patterns_allowlist.txt, lines of
# "<rule>:<repo-relative-path>  # reason". An entry suppresses that rule
# for that file; stale entries (file gone) fail the run so the list
# cannot rot.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
ALLOWLIST="$ROOT/tools/banned_patterns_allowlist.txt"

failures=0

# Comment- and string-stripped view of a source file, line numbers
# preserved: `// ...` tails, /* ... */ bodies (multi-line kept as blank
# lines) and string-literal contents are blanked so a banned name in a
# diagnostic message or a comment does not count.
stripped() {
  awk '
    {
      line = $0
      out = ""
      i = 1
      n = length(line)
      while (i <= n) {
        c = substr(line, i, 1)
        nxt = (i < n) ? substr(line, i + 1, 1) : ""
        if (in_block) {
          if (c == "*" && nxt == "/") { in_block = 0; i += 2; continue }
          i++; continue
        }
        if (in_str) {
          if (c == "\\") { i += 2; continue }
          if (c == "\"") { in_str = 0; out = out "\"" }
          i++; continue
        }
        if (in_chr) {
          if (c == "\\") { i += 2; continue }
          if (c == "\x27") { in_chr = 0; out = out "\x27" }
          i++; continue
        }
        if (c == "/" && nxt == "/") break
        if (c == "/" && nxt == "*") { in_block = 1; i += 2; continue }
        if (c == "\"") { in_str = 1; out = out c; i++; continue }
        if (c == "\x27") { in_chr = 1; out = out c; i++; continue }
        out = out c
        i++
      }
      print out
      in_str = 0; in_chr = 0   # string/char literals do not span lines
    }
  ' "$1"
}

allowlisted() {
  local rule="$1" file="$2"
  [ -f "$ALLOWLIST" ] || return 1
  grep -Eq "^${rule}:${file}([[:space:]]|$)" "$ALLOWLIST"
}

report() {
  local rule="$1" file="$2" line="$3" text="$4"
  echo "BANNED[$rule] $file:$line: $text"
  failures=$((failures + 1))
}

# Rule scopes. Library + drivers for the parse/random rules; the
# serving layer only for naked-new; the model's layers for activation;
# everything for locked-sleep.
mapfile -t ALL_FILES < <(cd "$ROOT" && find src tests tools bench examples \
  -name '*.cpp' -o -name '*.h' | sort)
mapfile -t SRC_FILES < <(cd "$ROOT" && find src -name '*.cpp' -o -name '*.h' | sort)
mapfile -t SERVING_FILES < <(cd "$ROOT" && find src/serving \
  -name '*.cpp' -o -name '*.h' | sort)
mapfile -t MODEL_FILES < <(cd "$ROOT" && find src/nn src/core \
  -name '*.cpp' -o -name '*.h' | sort)

# ---- numeric-parse -----------------------------------------------------
NUMERIC_RE='std::(sto(i|l|ul|ll|ull|f|d|ld))[[:space:]]*\(|[^[:alnum:]_](ato(i|l|ll|f)|strto(l|ll|ul|ull|f|d|ld|imax|umax))[[:space:]]*\('
for file in "${ALL_FILES[@]}"; do
  case "$file" in
    src/common/parse.cpp|src/common/parse.h) continue ;;
  esac
  allowlisted numeric-parse "$file" && continue
  while IFS= read -r hit; do
    [ -n "$hit" ] || continue
    report numeric-parse "$file" "${hit%%:*}" "${hit#*:}"
  done < <(stripped "$ROOT/$file" | grep -En "$NUMERIC_RE" || true)
done

# ---- raw-random --------------------------------------------------------
RANDOM_RE='[^[:alnum:]_](rand|srand)[[:space:]]*\(|std::random_device'
for file in "${SRC_FILES[@]}"; do
  allowlisted raw-random "$file" && continue
  while IFS= read -r hit; do
    [ -n "$hit" ] || continue
    report raw-random "$file" "${hit%%:*}" "${hit#*:}"
  done < <(stripped "$ROOT/$file" | grep -En "$RANDOM_RE" || true)
done

# ---- naked-new ---------------------------------------------------------
# `= delete` (deleted members) and placement-new do not occur in
# src/serving; the regex targets allocation expressions.
NEW_RE='[^[:alnum:]_.]new[[:space:]]+[[:alnum:]_:]|[^[:alnum:]_=]delete[[:space:]]+[[:alnum:]_*]|delete\[\]'
for file in "${SERVING_FILES[@]}"; do
  allowlisted naked-new "$file" && continue
  while IFS= read -r hit; do
    [ -n "$hit" ] || continue
    case "${hit#*:}" in
      *"= delete"*) continue ;;
    esac
    report naked-new "$file" "${hit%%:*}" "${hit#*:}"
  done < <(stripped "$ROOT/$file" | grep -En "$NEW_RE" || true)
done

# ---- locked-sleep ------------------------------------------------------
# Brace-depth heuristic: a lock guard declaration records its depth; a
# sleep_for while any recorded guard is still in scope is flagged. Scope
# exit is detected by net brace count per line (good enough for this
# tree's one-brace-per-line style; guards never outlive a function).
for file in "${ALL_FILES[@]}"; do
  allowlisted locked-sleep "$file" && continue
  while IFS= read -r hit; do
    [ -n "$hit" ] || continue
    report locked-sleep "$file" "${hit%%:*}" "${hit#*:}"
  done < <(stripped "$ROOT/$file" | awk '
    /(MutexLock|lock_guard|unique_lock|scoped_lock|shared_lock)[[:space:]]*[<(]?[^;]*\(/ {
      if ($0 !~ /\/\//) { locks[++n_locks] = depth }
    }
    /sleep_for/ {
      if (n_locks > 0) printf "%d:%s\n", NR, $0
    }
    {
      for (i = 1; i <= length($0); i++) {
        c = substr($0, i, 1)
        if (c == "{") depth++
        if (c == "}") {
          depth--
          while (n_locks > 0 && locks[n_locks] > depth) n_locks--
        }
      }
    }
  ' || true)
done

# ---- raw-sync ----------------------------------------------------------
# The negative lookahead bash can't do is handled by matching the type
# names exactly: a trailing [^a-zA-Z_] keeps std::mutex from matching
# inside longer identifiers while still catching "std::mutex mu;",
# "std::mutex>", "std::mutex&" and friends.
SYNC_RE='std::(recursive_|timed_|recursive_timed_|shared_)?mutex[^a-zA-Z_]|std::(lock_guard|unique_lock|scoped_lock|shared_lock)[^a-zA-Z_]|std::condition_variable(_any)?[^a-zA-Z_]'
for file in "${SRC_FILES[@]}"; do
  case "$file" in
    src/common/thread_annotations.h) continue ;;
  esac
  allowlisted raw-sync "$file" && continue
  while IFS= read -r hit; do
    [ -n "$hit" ] || continue
    report raw-sync "$file" "${hit%%:*}" "${hit#*:}"
  done < <(stripped "$ROOT/$file" | grep -En "$SYNC_RE" || true)
done

# ---- raw-stderr --------------------------------------------------------
STDERR_RE='fprintf[[:space:]]*\([[:space:]]*stderr|std::(cerr|cout)[^[:alnum:]_]|(^|[^[:alnum:]_])(std::)?(printf|puts)[[:space:]]*\('
for file in "${SRC_FILES[@]}"; do
  case "$file" in
    src/common/logging.cpp|src/common/logging.h) continue ;;
  esac
  allowlisted raw-stderr "$file" && continue
  while IFS= read -r hit; do
    [ -n "$hit" ] || continue
    report raw-stderr "$file" "${hit%%:*}" "${hit#*:}"
  done < <(stripped "$ROOT/$file" | grep -En "$STDERR_RE" || true)
done

# ---- pool-size ---------------------------------------------------------
POOL_RE='(^|[^[:alnum:]_])GetNumThreads[[:space:]]*\('
for file in "${SRC_FILES[@]}"; do
  case "$file" in
    src/common/thread_pool.cpp|src/common/thread_pool.h) continue ;;
  esac
  allowlisted pool-size "$file" && continue
  while IFS= read -r hit; do
    [ -n "$hit" ] || continue
    report pool-size "$file" "${hit%%:*}" "${hit#*:}"
  done < <(stripped "$ROOT/$file" | grep -En "$POOL_RE" || true)
done

# ---- activation --------------------------------------------------------
ACTIVATION_RE='(^|[^[:alnum:]_.])(std::)?(exp|expf|tanh|tanhf)[[:space:]]*\('
for file in "${MODEL_FILES[@]}"; do
  case "$file" in
    src/nn/matrix.cpp) continue ;;
  esac
  allowlisted activation "$file" && continue
  while IFS= read -r hit; do
    [ -n "$hit" ] || continue
    report activation "$file" "${hit%%:*}" "${hit#*:}"
  done < <(stripped "$ROOT/$file" | grep -En "$ACTIVATION_RE" || true)
done

# ---- allowlist hygiene -------------------------------------------------
if [ -f "$ALLOWLIST" ]; then
  while IFS= read -r entry; do
    case "$entry" in ''|'#'*) continue ;; esac
    path="${entry#*:}"
    path="${path%%[[:space:]]*}"
    if [ ! -f "$ROOT/$path" ]; then
      echo "STALE allowlist entry (no such file): $entry"
      failures=$((failures + 1))
    fi
  done < "$ALLOWLIST"
fi

if [ "$failures" -gt 0 ]; then
  echo "check_banned_patterns: $failures finding(s)"
  exit 1
fi
echo "check_banned_patterns: clean"
