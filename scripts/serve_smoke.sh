#!/bin/sh
# Serve smoke test: drive the job-queue daemon end to end through the
# coordctl surface, the way an operator would.
#
#   leg A  start `coordctl serve` on a fresh spool with a deliberately
#          small preemption quantum, submit a mutex check that needs
#          several slices, and require the verdict to agree with a
#          direct `coordctl check` invocation (exit code and all);
#   leg B  re-submit the identical spec and require it answered from the
#          verdict cache: zero freshly explored states, one slice;
#   leg C  a known-violation spec (even m) must report exit 1, again
#          agreeing with the direct CLI; a malformed spec must produce
#          an .error file, not a wedged daemon;
#   leg F  a served fuzz job agrees with the direct `coordctl fuzz`
#          campaign of the same seed: same exit code, same agreed count
#          (the fuzz counterpart of legs A and C);
#   leg D  clean shutdown via the spool's shutdown file; then a sweep of
#          examples/tiny.sweep must pass its regression gates.
#
# Usage: scripts/serve_smoke.sh [path-to-coordctl]
set -eu

COORD=${1:-_build/default/bin/coordctl.exe}
if [ ! -x "$COORD" ]; then
  echo "serve_smoke: $COORD not found (run dune build first)" >&2
  exit 2
fi

tmp=$(mktemp -d "${TMPDIR:-/tmp}/serve_smoke.XXXXXX")
spool="$tmp/spool"
mkdir -p "$spool"
daemon_pid=

cleanup() {
  [ -n "$daemon_pid" ] && kill "$daemon_pid" 2>/dev/null || true
  rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

fail() {
  echo "serve_smoke: FAIL: $*" >&2
  [ -f "$tmp/daemon.log" ] && sed 's/^/serve_smoke: daemon: /' "$tmp/daemon.log" >&2
  exit 1
}

# submit NAME BODY: drop a spec into the spool and wait for its verdict
submit() {
  name=$1; body=$2
  printf '%s\n' "$body" >"$spool/$name.job.tmp"
  mv "$spool/$name.job.tmp" "$spool/$name.job"
}

# wait_result NAME: block (bounded) until done/NAME.result or .error lands
wait_result() {
  i=0
  while [ ! -f "$spool/done/$1.result" ] && [ ! -f "$spool/done/$1.error" ]; do
    i=$((i + 1))
    [ "$i" -gt 600 ] && fail "no result for job $1 within 30s"
    sleep 0.05
  done
}

# field NAME KEY: read one key from a result file
field() {
  sed -n "s/^$2 *= *//p" "$spool/done/$1.result" | head -n 1
}

# --- leg A: preempted check agrees with the direct CLI ------------------

"$COORD" serve "$spool" --workers 1 --quantum 2000 --poll 0.02 \
  >"$tmp/daemon.log" 2>&1 &
daemon_pid=$!

submit preempted 'kind = check
proto = mutex
m = 3'
wait_result preempted
[ -f "$spool/done/preempted.result" ] || fail "preempted job errored"

"$COORD" check mutex -m 3 >/dev/null 2>&1 && direct_rc=0 || direct_rc=$?
served_rc=$(field preempted exit)
[ "$served_rc" = "$direct_rc" ] \
  || fail "served exit $served_rc != direct check exit $direct_rc"
[ "$(field preempted verdict)" = "pass" ] \
  || fail "preempted job verdict $(field preempted verdict) (want pass)"
slices=$(field preempted slices)
[ "$slices" -gt 6 ] \
  || fail "quantum 2000 should preempt a 6-config m=3 check (slices=$slices)"

# --- leg B: identical re-submission is served from the cache ------------

submit repeat 'kind = check
proto = mutex
m = 3'
wait_result repeat
[ "$(field repeat cached)" = "true" ] || fail "repeat was not served cached"
[ "$(field repeat explored)" = "0" ] \
  || fail "repeat explored $(field repeat explored) fresh states (want 0)"
[ "$(field repeat slices)" = "1" ] \
  || fail "fully-cached job took $(field repeat slices) slices (want 1)"
[ "$(field repeat verdict)" = "$(field preempted verdict)" ] \
  || fail "cached verdict differs from the original"

# --- leg C: violations and parse errors surface honestly ----------------

submit evenm 'kind = check
proto = mutex
m = 4
max_states = 200000'
submit garbage 'kind = check'
wait_result evenm
wait_result garbage

"$COORD" check mutex -m 4 >/dev/null 2>&1 && direct_rc=0 || direct_rc=$?
[ "$(field evenm exit)" = "$direct_rc" ] \
  || fail "even-m served exit $(field evenm exit) != direct $direct_rc"
[ "$(field evenm verdict)" = "violation" ] \
  || fail "even-m verdict $(field evenm verdict) (want violation)"
[ -f "$spool/done/garbage.error" ] \
  || fail "malformed spec did not produce an .error file"

# --- leg F: a served fuzz job agrees with the direct CLI ----------------

submit fuzz 'kind = fuzz
proto = mutex
n = 2
attempts = 50
seed = 42'
wait_result fuzz
[ -f "$spool/done/fuzz.result" ] || fail "fuzz job errored"

"$COORD" fuzz mutex -n 2 --attempts 50 --seed 42 >"$tmp/fuzz.txt" 2>&1 \
  && direct_rc=0 || direct_rc=$?
[ "$(field fuzz exit)" = "$direct_rc" ] \
  || fail "served fuzz exit $(field fuzz exit) != direct fuzz exit $direct_rc"
served_agreed=$(field fuzz detail | sed -n 's/.*agreed=\([0-9]*\).*/\1/p')
direct_agreed=$(sed -n 's/.*agreed \([0-9]*\).*/\1/p' "$tmp/fuzz.txt" | head -n 1)
[ -n "$served_agreed" ] && [ "$served_agreed" = "$direct_agreed" ] \
  || fail "served fuzz agreed=$served_agreed != direct agreed $direct_agreed"

# --- leg D: clean shutdown, then the example sweep ----------------------

: >"$spool/shutdown"
rc=0
wait "$daemon_pid" || rc=$?
daemon_pid=
[ "$rc" -eq 0 ] || fail "daemon shutdown exited $rc (want 0)"
[ ! -f "$spool/shutdown" ] || fail "daemon left the shutdown file behind"
[ -f "$spool/.state/cache.bin" ] || fail "daemon did not persist its cache"

"$COORD" sweep examples/tiny.sweep --quantum 4000 >"$tmp/sweep.txt" 2>&1 \
  || fail "example sweep exited $? (want 0: all gates pass)"
grep -q 'gate failure' "$tmp/sweep.txt" || fail "sweep printed no gate summary"

echo "serve_smoke: OK"
