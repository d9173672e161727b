#!/usr/bin/env bash
# Chaos soak for the sharded supervisor (PR 8).
#
# Two xl-preset runs with the full shard-fault chaos family enabled
# (crash / hang / invalid-result, injected from the deterministic
# split-stream plan):
#   A. an uninterrupted run — must exit 0 with a Complete-or-Degraded
#      outcome and a valid assignment;
#   B. a checkpointed run SIGKILLed mid-solve, then resumed with
#      --resume — the resumed run must also exit 0, and its merged
#      assignment must be byte-identical to run A's.
# Then one end-to-end check of the resume manifest gate:
#   C. a checkpointed quick-preset run under a taxonomy objective, then
#      a --resume with a tree that differs only at edge 100 of 119 —
#      the resume must refuse with exit 3 and
#      "checkpoint manifest mismatch" instead of reusing the shards.
#
# Used by CI (see .github/workflows/ci.yml) and runnable locally:
#   dune build && scripts/shard_soak.sh
set -euo pipefail

WGRAP=${WGRAP:-_build/default/bin/wgrap_cli.exe}
if [ ! -x "$WGRAP" ]; then
  echo "shard_soak: $WGRAP not built (run dune build first)" >&2
  exit 1
fi

PRESET=${PRESET:-xl}
SHARDS=${SHARDS:-4}
SEED=${SEED:-11}
# seconds before the SIGKILL; mid-solve for the xl preset on CI hardware
KILL_AFTER=${KILL_AFTER:-8}

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

COMMON=(assign --preset "$PRESET" --shards "$SHARDS" --seed "$SEED"
  --candidates 16 --no-refine --chaos-shards all)

echo "== run A: uninterrupted chaos run =="
"$WGRAP" "${COMMON[@]}" --out "$WORK/a.tsv" | tee "$WORK/a.log"

if ! grep -Eq '^solved in .* \((complete|degraded),' "$WORK/a.log"; then
  echo "shard_soak: FAIL — run A neither complete nor degraded" >&2
  exit 1
fi
if [ ! -s "$WORK/a.tsv" ]; then
  echo "shard_soak: FAIL — run A wrote no assignment" >&2
  exit 1
fi

echo "== run B: checkpointed chaos run, SIGKILL after ${KILL_AFTER}s =="
"$WGRAP" "${COMMON[@]}" \
  --checkpoint-dir "$WORK/ckpt" --checkpoint-every 1r \
  --out "$WORK/b.tsv" >"$WORK/b.log" 2>&1 &
PID=$!
sleep "$KILL_AFTER"
if kill -0 "$PID" 2>/dev/null; then
  echo "== SIGKILL pid $PID mid-solve =="
  kill -KILL "$PID" 2>/dev/null || true
else
  echo "== run B finished before the kill window — resume must still work =="
fi
wait "$PID" 2>/dev/null || true

echo "== run B: resume =="
rm -f "$WORK/b.tsv"
"$WGRAP" "${COMMON[@]}" \
  --checkpoint-dir "$WORK/ckpt" --checkpoint-every 1r --resume \
  --out "$WORK/b.tsv" | tee "$WORK/resume.log"

if ! grep -Eq '^solved in .* \((complete|degraded),' "$WORK/resume.log"; then
  echo "shard_soak: FAIL — resumed run neither complete nor degraded" >&2
  exit 1
fi

echo "== compare =="
if ! cmp "$WORK/a.tsv" "$WORK/b.tsv"; then
  echo "shard_soak: FAIL — resumed assignment differs from uninterrupted run" >&2
  exit 1
fi

echo "== run C: resume under a different taxonomy must refuse =="
for i in $(seq 1 119); do printf '%d\t%d\n' "$i" $(((i - 1) / 4)); done \
  >"$WORK/t1.tsv"
sed 's/^100\t24$/100\t3/' "$WORK/t1.tsv" >"$WORK/t2.tsv"
if cmp -s "$WORK/t1.tsv" "$WORK/t2.tsv"; then
  echo "shard_soak: FAIL — the two taxonomy trees are identical" >&2
  exit 1
fi
TAXONOMY=(assign --preset quick --shards 2 --seed "$SEED" --candidates 16
  --no-refine --objective taxonomy --checkpoint-dir "$WORK/ckpt-c")
"$WGRAP" "${TAXONOMY[@]}" --taxonomy-tsv "$WORK/t1.tsv" \
  --out "$WORK/c1.tsv" >"$WORK/c1.log"
code=0
"$WGRAP" "${TAXONOMY[@]}" --taxonomy-tsv "$WORK/t2.tsv" --resume \
  --out "$WORK/c2.tsv" >"$WORK/c2.log" 2>&1 || code=$?
cat "$WORK/c2.log"
if [ "$code" -ne 3 ] || ! grep -q 'checkpoint manifest mismatch' "$WORK/c2.log"; then
  echo "shard_soak: FAIL — resume under a changed taxonomy exited $code" \
    "instead of refusing on the manifest" >&2
  exit 1
fi

echo "shard_soak: OK ($(wc -l <"$WORK/a.tsv") papers, killed+resumed run bit-identical, manifest gate refuses a changed objective)"
