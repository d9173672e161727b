#!/usr/bin/env bash
# Chaos soak for the kill-safe service mode (`wgrap serve`).
#
# Feeds a generated event stream — with ~3% reviewer-leaves (each
# followed by a fresh reviewer-join) so the late-change refill runs
# through the kill and the resume, and salted with hostile lines (garbage,
# duplicate/stale ids, wrong-dimension vectors, unknown verbs) — into a
# durable serve session at a paced rate, SIGKILLs the server at a
# random point mid-stream, then:
#   1. `--verify` must certify the surviving state directory (snapshot
#      + journal-tail recovery byte-identical to a sequential fold of
#      the acknowledged WAL prefix — the oracle diff),
#   2. a `--resume` run re-fed the whole stream (an at-least-once client
#      retry: acked ids must be rejected, the tail accepted) must exit 0,
#   3. `--verify` must certify the final directory too,
#   4. hostile lines must be quarantined with line numbers, and the
#      journal must actually hold events.
#
# Used by CI (see .github/workflows/ci.yml) and runnable locally:
#   dune build && scripts/serve_soak.sh
set -euo pipefail

WGRAP=${WGRAP:-_build/default/bin/wgrap_cli.exe}
SEED=${SEED:-7}
N_EVENTS=${N_EVENTS:-150}
if [ ! -x "$WGRAP" ]; then
  echo "serve_soak: $WGRAP not built (run dune build first)" >&2
  exit 1
fi

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
STATE="$WORK/state"
SERVE_ARGS=(--dim 8 --delta-p 2 --delta-r 4 --snapshot-every 16
  --event-budget 25 --state-dir "$STATE")

echo "== generate chaos event stream (seed $SEED, $N_EVENTS events) =="
awk -v seed="$SEED" -v n="$N_EVENTS" -v dim=8 '
  function vec(  s, i) {
    s = ""
    for (i = 0; i < dim; i++) s = s (i ? "," : "") sprintf("%.4f", 0.05 + rand())
    return s
  }
  BEGIN {
    srand(seed)
    # live[] holds the current committee; a reviewer-leave is followed
    # by a reviewer-join with a fresh id, so the pool stays at nr
    id = 0; np = 0; nr = 6; nextr = nr
    for (r = 0; r < nr; r++) { live[r] = r; print ++id " reviewer-join " r " " vec() }
    for (e = 0; e < n; e++) {
      u = rand()
      if (u < 0.55 || np == 0)      { print ++id " paper-add " np " " vec(); np++ }
      else if (u < 0.65) print ++id " coi-add " int(rand() * np) " " live[int(rand() * nr)]
      else if (u < 0.73) print ++id " bid-update " int(rand() * np) " " live[int(rand() * nr)] " " sprintf("%.3f", rand() * 2)
      else if (u < 0.78) print ++id " paper-withdraw " int(rand() * np)
      else if (u < 0.81) {
        k = int(rand() * nr)
        print ++id " reviewer-leave " live[k]
        live[k] = nextr++
        print ++id " reviewer-join " live[k] " " vec()
      }
      else if (u < 0.88) print ++id " query " int(rand() * np)
      # hostile tail: the loop must reject these and keep going
      else if (u < 0.91) print "garbage from a confused client"
      else if (u < 0.94) print id " paper-add " np " 0.5,0.5"
      else if (u < 0.97) print int(rand() * id) " coi-add 0 0"
      else               print ++id " paper-nuke " int(rand() * (np + 1))
    }
    print ++id " stats"
  }' >"$WORK/stream.txt"
wc -l "$WORK/stream.txt"

echo "== start durable serve session (paced feed) =="
PACE=0.008
(
  while IFS= read -r line; do
    printf '%s\n' "$line"
    sleep "$PACE"
  done <"$WORK/stream.txt"
) | "$WGRAP" serve "${SERVE_ARGS[@]}" >"$WORK/serve1.log" 2>"$WORK/serve1.err" &
SERVER=$!

# Kill somewhere between 10% and 90% of the feed's duration, so the
# SIGKILL genuinely lands mid-stream (any point, any seed).
LINES=$(wc -l <"$WORK/stream.txt")
DELAY=$(awk -v seed="$SEED" -v lines="$LINES" -v pace="$PACE" \
  'BEGIN { srand(seed); printf "%.2f", lines * pace * (0.1 + rand() * 0.8) }')
sleep "$DELAY"
if kill -0 "$SERVER" 2>/dev/null; then
  echo "== SIGKILL pid $SERVER after ${DELAY}s mid-stream =="
  kill -KILL "$SERVER" 2>/dev/null || true
else
  echo "== stream finished before the ${DELAY}s kill point — resume still must work =="
fi
wait "$SERVER" 2>/dev/null || true
ACKED_AT_KILL=$(grep -c '^ok ' "$WORK/serve1.log" || true)
echo "acked before kill: $ACKED_AT_KILL"

echo "== oracle verify after kill =="
"$WGRAP" serve "${SERVE_ARGS[@]}" --verify | tee "$WORK/verify1.txt"
grep -q 'verify: ok' "$WORK/verify1.txt"
SEQ_AT_KILL=$(sed -n 's/.*entries=\([0-9]*\).*/\1/p' "$WORK/verify1.txt")

echo "== resume and re-feed the whole stream (at-least-once retry) =="
# Paced like the first pass: a full-speed file feed would exceed the
# admission bound on purpose (that is the overload contract, pinned
# separately by test_serve's "queue bound" case) and shed the tail as
# busy.
(
  while IFS= read -r line; do
    printf '%s\n' "$line"
    sleep "$PACE"
  done <"$WORK/stream.txt"
) | "$WGRAP" serve "${SERVE_ARGS[@]}" --resume \
  >"$WORK/serve2.log" 2>"$WORK/serve2.err"

echo "== oracle verify after resume =="
"$WGRAP" serve "${SERVE_ARGS[@]}" --verify | tee "$WORK/verify2.txt"
grep -q 'verify: ok' "$WORK/verify2.txt"

echo "== invariants =="
if ! grep -q '^ok ' "$WORK/serve2.log"; then
  echo "serve_soak: FAIL — resumed run acknowledged nothing" >&2
  exit 1
fi
if [ "$ACKED_AT_KILL" -gt 0 ] && ! grep -q '^err ' "$WORK/serve2.log"; then
  echo "serve_soak: FAIL — replayed acked ids were not rejected" >&2
  exit 1
fi
if [ ! -s "$STATE/events.wal" ]; then
  echo "serve_soak: FAIL — empty journal after soak" >&2
  exit 1
fi
if [ ! -s "$STATE/quarantine.log" ]; then
  echo "serve_soak: FAIL — hostile lines were not quarantined" >&2
  exit 1
fi
if ! grep -q 'line=' "$STATE/quarantine.log"; then
  echo "serve_soak: FAIL — quarantine rows carry no line numbers" >&2
  exit 1
fi

FINAL_SEQ=$(sed -n 's/.*entries=\([0-9]*\).*/\1/p' "$WORK/verify2.txt")
if [ "$FINAL_SEQ" -lt "$SEQ_AT_KILL" ]; then
  echo "serve_soak: FAIL — resume lost acknowledged entries ($SEQ_AT_KILL -> $FINAL_SEQ)" >&2
  exit 1
fi
echo "serve_soak: OK (entries $SEQ_AT_KILL at kill -> $FINAL_SEQ after resume, $ACKED_AT_KILL acks before kill)"
