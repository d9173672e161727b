#!/usr/bin/env bash
# Kill-and-resume smoke test for the crash-safe checkpointing layer.
#
# For each objective leg (the default coverage objective, then
# `--objective min`), runs `wgrap assign` once uninterrupted, then
# starts a checkpointed run with the same flags, SIGKILLs it as soon as
# a snapshot is on disk and the journal has recorded an incumbent (i.e.
# mid-solve whenever the instance is big enough to still be running),
# resumes from the
# same checkpoint directory and asserts:
#   1. the resumed run exits 0,
#   2. it did not discard the checkpoint (a checkpoint certifies under
#      the objective and run fingerprint of its own run),
#   3. the final journaled incumbent is >= the incumbent at kill time,
#   4. the resumed run wrote a non-empty assignment,
#   5. that assignment is byte-identical (cmp) to the uninterrupted
#      run's: a resume replays the remaining SDGA stages and SRA rounds
#      exactly.
#
# A jobs leg kills a `--jobs 2` run the same way and resumes it at the
# default `--jobs 1`. The job count changes only wall time and is not
# part of the run fingerprint, so the same five checks hold against an
# uninterrupted `--jobs 1` run.
#
# A width leg then kills a `--candidates 16` run the same way and
# resumes it with `--candidates 32`. The checkpoint pins its run, so
# the resumed run must report the discard ("candidates mismatch") and
# write the TSV of a fresh `--candidates 32` run, byte for byte.
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

echo "== generate corpus =="
"$WGRAP" generate --seed 7 --scale 1.0 \
  --authors "$WORK/authors.tsv" --papers "$WORK/papers.tsv"

# run_assign [assign flags...]: `wgrap assign` on the corpus at seed 7
CORPUS=(--seed 7 --authors "$WORK/authors.tsv" --papers "$WORK/papers.tsv")
run_assign() {
  "$WGRAP" assign "${CORPUS[@]}" "$@"
}

# checkpoint_and_kill NAME CKPT OUT [assign flags...]: start a
# checkpointed run and SIGKILL it mid-solve.
checkpoint_and_kill() {
  local name=$1 ckpt=$2 out=$3
  shift 3
  echo "== [$name] start checkpointed run =="
  # `exec`: the background job is the wgrap process itself, so the
  # SIGKILL below reaches it (killing a subshell leaves its child running).
  (exec "$WGRAP" assign "${CORPUS[@]}" "$@" \
    --checkpoint-dir "$ckpt" --checkpoint-every 1r \
    --out "$out" >"$out.first.log" 2>&1) &
  local pid=$!

  # Wait (max ~10 s) for a snapshot and a journaled incumbent, then
  # kill: the resume then has a checkpoint to certify.
  local state
  for _ in $(seq 1 200); do
    if ! kill -0 "$pid" 2>/dev/null; then
      break # finished before we could kill it — resume still must work
    fi
    state=$("$WGRAP" checkpoint --checkpoint-dir "$ckpt" 2>/dev/null || true)
    if grep -q '^snapshot: link=' <<<"$state" \
        && grep -q 'last incumbent' <<<"$state"; then
      echo "== [$name] SIGKILL pid $pid mid-solve =="
      kill -KILL "$pid" 2>/dev/null || true
      break
    fi
    sleep 0.05
  done
  wait "$pid" 2>/dev/null || true
}

# leg NAME KILL_FLAGS [extra assign flags...]: KILL_FLAGS (word-split)
# apply to the killed run only; the other two runs use the extra flags.
leg() {
  local name=$1 kill_flags=$2
  shift 2
  local dir="$WORK/$name"
  local ckpt="$dir/ckpt"
  mkdir -p "$dir"

  echo "== [$name] uninterrupted run =="
  run_assign "$@" --out "$dir/uninterrupted.tsv" >"$dir/uninterrupted.log" 2>&1

  checkpoint_and_kill "$name" "$ckpt" "$dir/assignment.tsv" "$@" $kill_flags

  echo "== [$name] checkpoint state at kill time =="
  "$WGRAP" checkpoint --checkpoint-dir "$ckpt" || true
  local before
  before=$("$WGRAP" checkpoint --checkpoint-dir "$ckpt" 2>/dev/null \
    | sed -n 's/^journal: last incumbent //p')
  before=${before:-0}

  echo "== [$name] resume =="
  rm -f "$dir/assignment.tsv"
  if ! run_assign "$@" --checkpoint-dir "$ckpt" --checkpoint-every 1r --resume \
      --out "$dir/assignment.tsv" 2>"$dir/resume.err"; then
    cat "$dir/resume.err" >&2
    echo "kill_resume_smoke: FAIL [$name] — resumed run exited non-zero" >&2
    exit 1
  fi
  cat "$dir/resume.err" >&2

  echo "== [$name] checkpoint state after resume =="
  "$WGRAP" checkpoint --checkpoint-dir "$ckpt"
  local after
  after=$("$WGRAP" checkpoint --checkpoint-dir "$ckpt" \
    | sed -n 's/^journal: last incumbent //p')

  if grep -q 'checkpoint: discarded' "$dir/resume.err"; then
    echo "kill_resume_smoke: FAIL [$name] — checkpoint discarded" >&2
    exit 1
  fi
  if [ -z "$after" ]; then
    echo "kill_resume_smoke: FAIL [$name] — resumed run journaled no incumbent" >&2
    exit 1
  fi
  if ! awk -v a="$after" -v b="$before" 'BEGIN { exit !(a >= b - 1e-9) }'; then
    echo "kill_resume_smoke: FAIL [$name] — objective regressed: $after < $before" >&2
    exit 1
  fi
  if [ ! -s "$dir/assignment.tsv" ]; then
    echo "kill_resume_smoke: FAIL [$name] — no assignment written after resume" >&2
    exit 1
  fi
  if ! cmp "$dir/uninterrupted.tsv" "$dir/assignment.tsv"; then
    echo "kill_resume_smoke: FAIL [$name] — resumed assignment differs from the uninterrupted run" >&2
    exit 1
  fi
  echo "kill_resume_smoke: [$name] OK (incumbent $before at kill -> $after after resume, TSV bit-identical)"
}

# width_leg: a k = 16 checkpoint resumed at k = 32 is discarded, and the
# run writes what a fresh k = 32 run writes.
width_leg() {
  local dir="$WORK/width"
  local ckpt="$dir/ckpt"
  mkdir -p "$dir"

  echo "== [width] fresh --candidates 32 run =="
  run_assign --candidates 32 --out "$dir/fresh32.tsv" >"$dir/fresh32.log" 2>&1

  checkpoint_and_kill width "$ckpt" "$dir/k16.tsv" --candidates 16

  echo "== [width] resume the k = 16 checkpoint with --candidates 32 =="
  if ! run_assign --candidates 32 --checkpoint-dir "$ckpt" --checkpoint-every 1r --resume \
      --out "$dir/resumed32.tsv" 2>"$dir/resume.err"; then
    cat "$dir/resume.err" >&2
    echo "kill_resume_smoke: FAIL [width] — resumed run exited non-zero" >&2
    exit 1
  fi
  cat "$dir/resume.err" >&2
  if ! grep -q 'candidates mismatch' "$dir/resume.err"; then
    echo "kill_resume_smoke: FAIL [width] — the k = 16 checkpoint was not discarded" >&2
    exit 1
  fi
  if ! cmp "$dir/fresh32.tsv" "$dir/resumed32.tsv"; then
    echo "kill_resume_smoke: FAIL [width] — the run differs from a fresh k = 32 run" >&2
    exit 1
  fi
  echo "kill_resume_smoke: [width] OK (k = 16 checkpoint discarded, TSV = fresh k = 32)"
}

leg coverage ""
leg min "" --objective min
leg jobs "--jobs 2"
width_leg

echo "kill_resume_smoke: OK (coverage, min, jobs and width legs)"
