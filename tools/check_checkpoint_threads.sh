#!/usr/bin/env bash
# Checkpoint thread-invariance check: trains the same small model with
# pathrank_cli at PATHRANK_THREADS=1 and =4 and fails (non-zero exit)
# unless the two checkpoints are byte-identical. No result may depend on
# the thread count, and a checkpoint covers the whole training pipeline:
# node2vec walks and skip-gram, candidate generation and TrainPathRank.
# Registered as the `checkpoint_thread_check` ctest.
#
# Usage: tools/check_checkpoint_threads.sh PATH/TO/pathrank_cli
set -euo pipefail

CLI="${1:?usage: $0 PATH/TO/pathrank_cli}"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

"$CLI" network --rows 12 --cols 12 --seed 1 --out "$WORK/net" > /dev/null
"$CLI" simulate --network "$WORK/net" --trips 120 --drivers 10 \
  --out "$WORK/trips.csv" > /dev/null
for threads in 1 4; do
  PATHRANK_THREADS="$threads" "$CLI" train --network "$WORK/net" \
    --trips "$WORK/trips.csv" --m 16 --epochs 1 \
    --out "$WORK/model_$threads.bin" > /dev/null
done

if ! cmp "$WORK/model_1.bin" "$WORK/model_4.bin"; then
  echo "check_checkpoint_threads: checkpoints differ between" \
    "PATHRANK_THREADS=1 and =4"
  exit 1
fi
echo "check_checkpoint_threads: identical at PATHRANK_THREADS=1 and =4"
