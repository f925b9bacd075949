#!/usr/bin/env bash
# Kill-restart smoke: the real multi-process durability story, end to end.
#
# Three provider processes + one client over loopback TCP, each journaling to
# its own WAL. Phase 1 records the clean-run result digest. Phase 2 starts
# provider 1 with --crash-after so it _exit(137)s mid-epoch, restarts it
# against the same WAL, and requires the client to finish with the *same*
# digest — a killed-and-restarted provider must be observationally absent.
# Phase 3 checks the foreign-state gate: pointing a different run seed at an
# existing WAL must be refused before the process binds anything. Every
# provider must exit on the client's shutdown: a provider log that says
# "timed out" fails the smoke.
#
# Usage: kill_restart_smoke.sh <path-to-dauct_cli> [base_port]
set -u

CLI=${1:?usage: kill_restart_smoke.sh <path-to-dauct_cli> [base_port]}
BASE_PORT=${2:-19700}
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

ARGS="--runtime tcp --users 8 --providers 3 --k 1 --seed 7 --base-port $BASE_PORT"
fail() { echo "FAIL: $*" >&2; exit 1; }

digest_of() { grep -o 'result sha256 [0-9a-f]*' "$1" | awk '{print $3}'; }
no_timeouts() {
  for log in "$@"; do
    ! grep -q "timed out" "$log" || fail "provider timed out: $(cat "$log")"
  done
}

# --- phase 1: clean run ----------------------------------------------------
mkdir -p "$WORK/clean"
for j in 0 1 2; do
  "$CLI" $ARGS --tcp-node "$j" --wal-dir "$WORK/clean" \
    > "$WORK/clean-p$j.log" 2>&1 &
done
sleep 0.3
"$CLI" $ARGS --tcp-node client > "$WORK/clean-client.log" 2>&1 \
  || fail "clean client run failed: $(cat "$WORK/clean-client.log")"
wait
CLEAN_DIGEST=$(digest_of "$WORK/clean-client.log")
[ -n "$CLEAN_DIGEST" ] || fail "clean run produced no digest"
no_timeouts "$WORK"/clean-p*.log
echo "clean digest: $CLEAN_DIGEST"

# --- phase 2: kill provider 1 mid-epoch, restart it ------------------------
mkdir -p "$WORK/kill"
"$CLI" $ARGS --tcp-node 0 --wal-dir "$WORK/kill" > "$WORK/kill-p0.log" 2>&1 &
"$CLI" $ARGS --tcp-node 1 --wal-dir "$WORK/kill" --crash-after 3 \
  > "$WORK/kill-p1.log" 2>&1 &
VICTIM=$!
"$CLI" $ARGS --tcp-node 2 --wal-dir "$WORK/kill" > "$WORK/kill-p2.log" 2>&1 &
sleep 0.3
"$CLI" $ARGS --tcp-node client > "$WORK/kill-client.log" 2>&1 &
CLIENT=$!

wait "$VICTIM"; VEXIT=$?
[ "$VEXIT" -eq 137 ] || fail "victim exited $VEXIT, expected 137 (the kill)"
"$CLI" $ARGS --tcp-node 1 --wal-dir "$WORK/kill" > "$WORK/kill-p1b.log" 2>&1 \
  || fail "restarted provider failed: $(cat "$WORK/kill-p1b.log")"
grep -q "recovered" "$WORK/kill-p1b.log" \
  || fail "restarted provider did not report a recovery"

wait "$CLIENT" || fail "kill-restart client failed: $(cat "$WORK/kill-client.log")"
wait
KILL_DIGEST=$(digest_of "$WORK/kill-client.log")
echo "kill-restart digest: $KILL_DIGEST"
[ "$KILL_DIGEST" = "$CLEAN_DIGEST" ] \
  || fail "digests diverge: clean=$CLEAN_DIGEST kill-restart=$KILL_DIGEST"
no_timeouts "$WORK"/kill-p*.log

# --- phase 3: a foreign WAL is refused, fast -------------------------------
"$CLI" --runtime tcp --users 8 --providers 3 --k 1 --seed 8 \
  --base-port "$BASE_PORT" --tcp-node 1 --wal-dir "$WORK/kill" \
  > "$WORK/foreign.log" 2>&1
[ $? -eq 1 ] || fail "foreign-seed recovery was not refused"
grep -q "wal recovery refused" "$WORK/foreign.log" \
  || fail "refusal missing its diagnostic: $(cat "$WORK/foreign.log")"

echo "PASS: kill-restart rejoin matches the clean run, foreign WAL refused"
