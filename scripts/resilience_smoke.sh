#!/bin/sh
# Resilience smoke test: a seeded infrastructure-fault campaign driven
# through the coordctl surface, the way an operator would run it.
#
#   leg 1  fault-free oracle sweeps (seq + par) record verdicts and
#          per-naming state counts;
#   leg 2  the same sweeps under --inject-faults SEED (worker kills,
#          stalls, torn snapshot writes, an allocation failure) must not
#          hang, must reach the oracle's verdict and state counts via
#          supervision / salvage / recovery, and must exit 0;
#   leg 3  --deadline 0 stops gracefully at a generation boundary with
#          exit 6 and a snapshot a later run resumes to the oracle;
#   leg 4  a snapshot with a torn tail is rejected by a strict resume
#          (exit 4) and salvaged by --salvage (exit 0, oracle graph);
#   leg 5  --deadline bounds the whole invocation, not each
#          configuration: a 120-configuration sweep under a short
#          deadline exits 6 without checking every configuration.
#
# The whole campaign is replayable from its printed seed:
#   RESILIENCE_SEED=N scripts/resilience_smoke.sh        (default 7)
set -eu

COORD=${1:-_build/default/bin/coordctl.exe}
SEED=${RESILIENCE_SEED:-7}
if [ ! -x "$COORD" ]; then
  echo "resilience_smoke: $COORD not found (run dune build first)" >&2
  exit 2
fi

tmp=$(mktemp -d "${TMPDIR:-/tmp}/resilience_smoke.XXXXXX")
trap 'rm -rf "$tmp"' EXIT INT TERM

fail() {
  echo "resilience_smoke: FAIL: $*" >&2
  exit 1
}

echo "resilience_smoke: fault plan seed $SEED (replay with RESILIENCE_SEED=$SEED)"

# --- leg 1: fault-free oracles ------------------------------------------

"$COORD" check mutex -m 3 >"$tmp/oracle_seq.txt" 2>&1 \
  || fail "seq oracle exited $?"
"$COORD" check mutex -m 3 --par --domains 3 >"$tmp/oracle_par.txt" 2>&1 \
  || fail "par oracle exited $?"

# --- leg 2: the same checks under the armed fault plan ------------------
# (wrapped in a hard timeout: "never hangs" is part of the contract)

timeout 45 "$COORD" check mutex -m 3 --inject-faults "$SEED" \
  --snapshot-dir "$tmp/snaps_seq" >"$tmp/fault_seq.txt" 2>"$tmp/fault_seq.err" \
  || fail "seq fault campaign exited $? (stderr: $(cat "$tmp/fault_seq.err"))"
grep -q '^fault plan:' "$tmp/fault_seq.txt" \
  || fail "fault campaign did not print its plan"
grep -v '^fault plan:' "$tmp/fault_seq.txt" \
  | diff -u "$tmp/oracle_seq.txt" - >&2 \
  || fail "seq fault campaign verdict/state counts differ from the oracle"

timeout 45 "$COORD" check mutex -m 3 --par --domains 3 \
  --inject-faults "$SEED" --snapshot-dir "$tmp/snaps_par" \
  >"$tmp/fault_par.txt" 2>"$tmp/fault_par.err" \
  || fail "par fault campaign exited $? (stderr: $(cat "$tmp/fault_par.err"))"
grep -v '^fault plan:' "$tmp/fault_par.txt" \
  | diff -u "$tmp/oracle_par.txt" - >&2 \
  || fail "par fault campaign verdict/state counts differ from the oracle"

# --- leg 3: deadline stops gracefully with exit 6, resume completes -----

"$COORD" check mutex -m 3 --deadline 0 --snapshot-dir "$tmp/ddl" \
  >"$tmp/ddl.txt" 2>&1 && rc=0 || rc=$?
[ "$rc" -eq 6 ] || fail "expired deadline exited $rc (want 6)"
snap=$(ls "$tmp"/ddl/*.snap 2>/dev/null | head -n 1)
[ -n "$snap" ] || fail "no snapshot flushed on deadline stop"
"$COORD" check mutex -m 3 --resume "$snap" >"$tmp/ddl_resumed.txt" 2>&1 \
  || fail "resume after deadline exited $?"
diff -u "$tmp/oracle_seq.txt" "$tmp/ddl_resumed.txt" >&2 \
  || fail "resume after deadline differs from the oracle"

# --- leg 4: torn snapshot tail — strict reject vs salvage ---------------

"$COORD" explore mutex -m 4 --max-states 3000 \
  --snapshot "$tmp/cut.snap" --snapshot-every 1 >/dev/null 2>&1 \
  || fail "checkpointing run exited $?"
size=$(wc -c <"$tmp/cut.snap")
dd if="$tmp/cut.snap" of="$tmp/torn.snap" bs=1 count=$((size - 5)) 2>/dev/null

"$COORD" explore mutex -m 4 --resume "$tmp/torn.snap" >/dev/null 2>&1 \
  && rc=0 || rc=$?
[ "$rc" -eq 4 ] || fail "strict resume of a torn snapshot exited $rc (want 4)"

"$COORD" explore mutex -m 4 >"$tmp/oracle_x.txt" 2>&1 \
  || fail "explore oracle exited $?"
"$COORD" explore mutex -m 4 --resume "$tmp/torn.snap" --salvage \
  >"$tmp/salvaged.txt" 2>"$tmp/salvaged.err" \
  || fail "salvaged resume exited $?"
grep -q 'snapshot salvage' "$tmp/salvaged.err" \
  || fail "salvaged resume did not report what it rolled back"
grep -v '^throughput' "$tmp/oracle_x.txt" >"$tmp/oracle_x.flat"
grep -v '^throughput' "$tmp/salvaged.txt" >"$tmp/salvaged.flat"
diff -u "$tmp/oracle_x.flat" "$tmp/salvaged.flat" >&2 \
  || fail "salvaged resume differs from the uninterrupted oracle"

# --- leg 5: the deadline bounds the whole sweep ------------------------
# structural, not timed: a per-configuration deadline would print all
# 120 naming lines (each configuration stopped at its own deadline)

"$COORD" check mutex -m 5 --deadline 0.05 >"$tmp/ddl5.txt" 2>&1 \
  && rc=0 || rc=$?
[ "$rc" -eq 6 ] || fail "deadline-bounded sweep exited $rc (want 6)"
lines=$(grep -c '^namings' "$tmp/ddl5.txt" || true)
[ "$lines" -lt 120 ] \
  || fail "deadline did not bound the sweep: $lines of 120 configurations checked"

echo "resilience_smoke: OK (seed $SEED)"
