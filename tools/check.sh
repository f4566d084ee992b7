#!/usr/bin/env sh
# The consolidated CI gate: runs every check `make check` promises, in
# order, fail-fast, with one PASS/FAIL summary line per gate.  CI calls
# `make check` which calls this script — the gate list lives here and
# nowhere else, so local runs and CI can never drift.
#
# Besides the PASS/FAIL lines, the script writes a machine-readable
# summary to artifacts/check_summary.json ({gate, status, duration_s}
# per entry) on success AND on failure — CI uploads it as an artifact
# so a red run still reports exactly which gate broke and how long the
# green ones took.
#
# Usage: tools/check.sh [gate ...]     (default: the full sequence)

set -u

GATES="${*:-lint test identity bench-check coverage}"

SUMMARY="artifacts/check_summary.json"
mkdir -p "$(dirname "$SUMMARY")"
rows=""

append_row() {
    # append_row <gate> <status> <duration_s>
    row="{\"gate\": \"$1\", \"status\": \"$2\", \"duration_s\": $3}"
    if [ -n "$rows" ]; then
        rows="$rows,
  $row"
    else
        rows="$row"
    fi
}

write_summary() {
    # write_summary <overall-status>
    printf '{\n "gates": [\n  %s\n ],\n "status": "%s"\n}\n' \
        "$rows" "$1" >"$SUMMARY"
}

for gate in $GATES; do
    start=$(date +%s)
    if ${MAKE:-make} -s "$gate"; then
        end=$(date +%s)
        echo "PASS $gate ($((end - start))s)"
        append_row "$gate" pass "$((end - start))"
    else
        status=$?
        end=$(date +%s)
        echo "FAIL $gate ($((end - start))s)"
        append_row "$gate" fail "$((end - start))"
        write_summary fail
        echo "check: gate '$gate' failed (exit $status); later gates not run" >&2
        echo "check: summary -> $SUMMARY" >&2
        exit "$status"
    fi
done
write_summary pass
echo "check: all gates passed (summary -> $SUMMARY)"
