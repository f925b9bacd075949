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
# The cluster listens on base_port .. base_port+3 (providers 0-2, then the
# client). Without a base_port the script probes for four free consecutive
# ports on 127.0.0.1 in [10000, 20000): below both net::pick_base_port's
# [20000, 40000) and Linux's default ephemeral range (32768-60999), from
# which outbound connections take their ports. On failure the work
# directory is kept and every log in it (providers and client) is printed.
#
# Usage: kill_restart_smoke.sh <path-to-dauct_cli> [base_port]
set -u

CLI=${1:?usage: kill_restart_smoke.sh <path-to-dauct_cli> [base_port]}

probe_base_port() {
  python3 - <<'PY' 2>/dev/null || echo 19700
import random, socket
for _ in range(200):
    base = random.randrange(10000, 20000 - 4)
    held = []
    try:
        for port in range(base, base + 4):
            s = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            held.append(s)
            s.bind(("127.0.0.1", port))
    except OSError:
        continue
    finally:
        for s in held:
            s.close()
    print(base)
    break
else:
    raise SystemExit(1)
PY
}
BASE_PORT=${2:-$(probe_base_port)}
WORK=$(mktemp -d)

on_exit() {
  local status=$?
  if [ "$status" -eq 0 ]; then
    rm -rf "$WORK"
    return
  fi
  # Stop what is still running so it cannot hold the ports, then show why.
  local pids
  pids=$(jobs -p)
  [ -z "$pids" ] || kill $pids 2>/dev/null
  for log in "$WORK"/*.log; do
    [ -e "$log" ] || continue
    echo "----- $log -----" >&2
    cat "$log" >&2
  done
  echo "base port $BASE_PORT; logs and WALs kept in $WORK" >&2
}
trap on_exit EXIT
echo "base port: $BASE_PORT"

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
