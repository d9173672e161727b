#!/usr/bin/env bash
# Kill-and-resume smoke test for the crash-safe checkpointing layer.
#
# Runs `wgrap assign` once uninterrupted, then starts a checkpointed
# run with the same flags, SIGKILLs it as soon as the journal has
# recorded an incumbent (i.e. mid-refinement whenever the instance is
# big enough to still be running), resumes from the same checkpoint
# directory and asserts:
#   1. the resumed run exits 0,
#   2. the final journaled incumbent is >= the incumbent at kill time,
#   3. the resumed run wrote a non-empty assignment,
#   4. that assignment is byte-identical (cmp) to the uninterrupted
#      run's: a resume replays the remaining SDGA stages and SRA rounds
#      exactly.
#
# Used by CI (see .github/workflows/ci.yml) and runnable locally:
#   dune build && scripts/kill_resume_smoke.sh
set -euo pipefail

WGRAP=${WGRAP:-_build/default/bin/wgrap_cli.exe}
if [ ! -x "$WGRAP" ]; then
  echo "kill_resume_smoke: $WGRAP not built (run dune build first)" >&2
  exit 1
fi

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
CKPT="$WORK/ckpt"

echo "== generate corpus =="
"$WGRAP" generate --seed 7 --scale 1.0 \
  --authors "$WORK/authors.tsv" --papers "$WORK/papers.tsv"

echo "== uninterrupted run =="
"$WGRAP" assign --seed 7 \
  --authors "$WORK/authors.tsv" --papers "$WORK/papers.tsv" \
  --out "$WORK/uninterrupted.tsv" >"$WORK/uninterrupted.log" 2>&1

echo "== start checkpointed run =="
"$WGRAP" assign --seed 7 \
  --authors "$WORK/authors.tsv" --papers "$WORK/papers.tsv" \
  --checkpoint-dir "$CKPT" --checkpoint-every 1r \
  --out "$WORK/assignment.tsv" >"$WORK/first.log" 2>&1 &
PID=$!

# Wait (max ~10 s) for the journal to record an incumbent, then kill.
for _ in $(seq 1 200); do
  if ! kill -0 "$PID" 2>/dev/null; then
    break # finished before we could kill it — resume still must work
  fi
  if "$WGRAP" checkpoint --checkpoint-dir "$CKPT" 2>/dev/null \
      | grep -q 'last incumbent'; then
    echo "== SIGKILL pid $PID mid-refinement =="
    kill -KILL "$PID" 2>/dev/null || true
    break
  fi
  sleep 0.05
done
wait "$PID" 2>/dev/null || true

echo "== checkpoint state at kill time =="
"$WGRAP" checkpoint --checkpoint-dir "$CKPT" || true
BEFORE=$("$WGRAP" checkpoint --checkpoint-dir "$CKPT" 2>/dev/null \
  | sed -n 's/^journal: last incumbent //p')
BEFORE=${BEFORE:-0}

echo "== resume =="
rm -f "$WORK/assignment.tsv"
"$WGRAP" assign --seed 7 \
  --authors "$WORK/authors.tsv" --papers "$WORK/papers.tsv" \
  --checkpoint-dir "$CKPT" --checkpoint-every 1r --resume \
  --out "$WORK/assignment.tsv"

echo "== checkpoint state after resume =="
"$WGRAP" checkpoint --checkpoint-dir "$CKPT"
AFTER=$("$WGRAP" checkpoint --checkpoint-dir "$CKPT" \
  | sed -n 's/^journal: last incumbent //p')

if [ -z "$AFTER" ]; then
  echo "kill_resume_smoke: FAIL — resumed run journaled no incumbent" >&2
  exit 1
fi
if ! awk -v a="$AFTER" -v b="$BEFORE" 'BEGIN { exit !(a >= b - 1e-9) }'; then
  echo "kill_resume_smoke: FAIL — objective regressed: $AFTER < $BEFORE" >&2
  exit 1
fi
if [ ! -s "$WORK/assignment.tsv" ]; then
  echo "kill_resume_smoke: FAIL — no assignment written after resume" >&2
  exit 1
fi

if ! cmp "$WORK/uninterrupted.tsv" "$WORK/assignment.tsv"; then
  echo "kill_resume_smoke: FAIL — resumed assignment differs from the uninterrupted run" >&2
  exit 1
fi

echo "kill_resume_smoke: OK (incumbent $BEFORE at kill -> $AFTER after resume, TSV bit-identical)"
