#!/usr/bin/env bash
# CLI usage check: `pathrank_cli train` must reject each out-of-range
# numeric flag with exit 2, a message naming the flag, and no checkpoint
# written, before it loads or trains anything. A small valid run (with
# --threshold at its inclusive bound 1) must still train and write its
# checkpoint, so the rejections are not an artefact of the invocation.
# `evaluate`, `rank` and `serve` must reject the out-of-range candidate
# flags (--k, --threshold) the same way, with valid files to read. All
# four must reject a --strategy other than tkdi or dtkdi the same way.
# `serve` must also reject each out-of-range server flag (never clamp it
# into range) and the removed --replicas flag. Each `serve` case runs
# under `timeout 10`, so a server that boots instead fails the check
# rather than hanging it.
# Registered as the `cli_usage_check` ctest.
#
# Usage: tools/check_cli_usage.sh PATH/TO/pathrank_cli
set -euo pipefail

CLI="${1:?usage: $0 PATH/TO/pathrank_cli}"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

"$CLI" network --rows 6 --cols 6 --seed 1 --out "$WORK/net" > /dev/null
"$CLI" simulate --network "$WORK/net" --trips 30 --drivers 4 \
  --min-distance 500 --out "$WORK/trips.csv" > /dev/null

train() {
  "$CLI" train --network "$WORK/net" --trips "$WORK/trips.csv" \
    --m 4 --hidden 4 --k 3 --epochs 1 --out "$WORK/model.bin" "$@"
}
evaluate() {
  "$CLI" evaluate --network "$WORK/net" --trips "$WORK/trips.csv" \
    --model "$WORK/valid.bin" "$@"
}
rank() {
  "$CLI" rank --network "$WORK/net" --model "$WORK/valid.bin" \
    --from 0 --to 35 "$@"
}
serve() {
  timeout 10 "$CLI" serve --network "$WORK/net" --model "$WORK/valid.bin" \
    --http 0 --http-addr 127.0.0.1 "$@"
}

failures=0

if ! train --threshold 1 > /dev/null 2> "$WORK/stderr"; then
  echo "check_cli_usage: a valid train run failed:"
  cat "$WORK/stderr"
  failures=$((failures + 1))
elif [[ ! -s "$WORK/model.bin" ]]; then
  echo "check_cli_usage: a valid train run wrote no checkpoint"
  failures=$((failures + 1))
else
  mv "$WORK/model.bin" "$WORK/valid.bin"
fi

# expect_rejected COMMAND FLAG VALUE: COMMAND (one of the functions
# above), given --FLAG VALUE, must exit 2, name the flag on stderr, print
# nothing on stdout and write no checkpoint.
expect_rejected() {
  local command="$1" flag="$2" value="$3" status=0
  local what="$command --$flag $value"
  rm -f "$WORK/model.bin"
  "$command" "--$flag" "$value" > "$WORK/stdout" 2> "$WORK/stderr" ||
    status=$?
  if [[ "$status" -ne 2 ]]; then
    echo "check_cli_usage: $what exited $status, want 2"
    failures=$((failures + 1))
  elif ! grep -q -- "--$flag" "$WORK/stderr"; then
    echo "check_cli_usage: $what: stderr does not name the flag:"
    cat "$WORK/stderr"
    failures=$((failures + 1))
  elif [[ -s "$WORK/stdout" ]]; then
    echo "check_cli_usage: $what started work before rejecting:"
    cat "$WORK/stdout"
    failures=$((failures + 1))
  fi
  if [[ -e "$WORK/model.bin" ]]; then
    echo "check_cli_usage: $what wrote a checkpoint"
    failures=$((failures + 1))
  fi
}

for value in 0 -3; do
  for flag in epochs m hidden k; do
    expect_rejected train "$flag" "$value"
  done
done
for value in 0 -1 inf nan; do
  expect_rejected train lr "$value"
done
for value in 0 -0.5 1.5 nan; do
  expect_rejected train threshold "$value"
done

for command in evaluate rank serve; do
  for pair in "k 0" "k -3" "threshold 0" "threshold 1.5" "threshold nan"; do
    read -r flag value <<< "$pair"
    expect_rejected "$command" "$flag" "$value"
  done
done

for pair in "max-deadline-ms -1" "default-deadline-ms -1" "route-cache -1" \
            "max-inflight 0" "idle-timeout-s 0" "request-deadline-s 0" \
            "watch-interval-ms 0" "http-threads -1" "max-queue-wait-us -5" \
            "replicas 4"; do
  read -r flag value <<< "$pair"
  expect_rejected serve "$flag" "$value"
done

for command in train evaluate rank serve; do
  for value in penalty bogus; do
    expect_rejected "$command" strategy "$value"
  done
done

if [[ "$failures" -ne 0 ]]; then
  echo "check_cli_usage: $failures failure(s)"
  exit 1
fi
echo "check_cli_usage: every out-of-range train, evaluate, rank and serve" \
  "flag, serve --replicas and every unknown --strategy exit 2 and write" \
  "nothing"
