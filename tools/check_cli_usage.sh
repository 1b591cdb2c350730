#!/usr/bin/env bash
# CLI usage check: `pathrank_cli train` must reject each out-of-range
# numeric flag with exit 2, a message naming the flag, and no checkpoint
# written, before it loads or trains anything. A small valid run (with
# --threshold at its inclusive bound 1) must still train and write its
# checkpoint, so the rejections are not an artefact of the invocation.
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

failures=0
expect_rejected() {
  local flag="$1" value="$2" status=0
  rm -f "$WORK/model.bin"
  train "--$flag" "$value" > "$WORK/stdout" 2> "$WORK/stderr" || status=$?
  if [[ "$status" -ne 2 ]]; then
    echo "check_cli_usage: --$flag $value exited $status, want 2"
    failures=$((failures + 1))
  elif ! grep -q -- "--$flag" "$WORK/stderr"; then
    echo "check_cli_usage: --$flag $value: stderr does not name the flag:"
    cat "$WORK/stderr"
    failures=$((failures + 1))
  elif [[ -s "$WORK/stdout" ]]; then
    echo "check_cli_usage: --$flag $value started work before rejecting:"
    cat "$WORK/stdout"
    failures=$((failures + 1))
  fi
  if [[ -e "$WORK/model.bin" ]]; then
    echo "check_cli_usage: --$flag $value wrote a checkpoint"
    failures=$((failures + 1))
  fi
}

for value in 0 -3; do
  for flag in epochs m hidden k; do
    expect_rejected "$flag" "$value"
  done
done
for value in 0 -1 inf nan; do
  expect_rejected lr "$value"
done
for value in 0 -0.5 1.5 nan; do
  expect_rejected threshold "$value"
done

rm -f "$WORK/model.bin"
if ! train --threshold 1 > /dev/null 2> "$WORK/stderr"; then
  echo "check_cli_usage: a valid train run failed:"
  cat "$WORK/stderr"
  failures=$((failures + 1))
elif [[ ! -s "$WORK/model.bin" ]]; then
  echo "check_cli_usage: a valid train run wrote no checkpoint"
  failures=$((failures + 1))
fi

if [[ "$failures" -ne 0 ]]; then
  echo "check_cli_usage: $failures failure(s)"
  exit 1
fi
echo "check_cli_usage: every out-of-range train flag exits 2 and writes nothing"
