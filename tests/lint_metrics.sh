#!/bin/sh
# Part of sharpie. Lint: every counter/histogram name the library emits
# must be documented in DESIGN.md's metric name reference (section 12).
# An undocumented metric is invisible to operators reading the docs and
# silently skews dashboards; this makes adding the doc row part of
# adding the metric.
#
#   usage: lint_metrics.sh <repo-root>
#
# Emission sites: TraceBuffer::counter()/tally()/sample() calls, the traced
# solver-check helpers (checkTraced / checkAssumingTraced carry the
# phase-histogram name), and resil's bump() counter forwarder. Names are
# the quoted [a-z0-9_.] literals on those lines; comment-only lines are
# ignored so prose mentioning a histogram does not count as an emission.
ROOT=${1:?usage: lint_metrics.sh repo-root}
DESIGN="$ROOT/DESIGN.md"

[ -r "$DESIGN" ] || { echo "missing $DESIGN"; exit 1; }

NAMES=$(grep -rhE '(->counter\(|->tally\(|->sample\(|\bbump\(|checkTraced|checkAssumingTraced)' \
          "$ROOT/src" --include='*.cpp' --include='*.h' \
        | grep -vE '^[[:space:]]*//' \
        | grep -ohE '"[a-z][a-z0-9_.]*"' | tr -d '"' | sort -u)

[ -n "$NAMES" ] || { echo "no metric emissions found -- lint is broken"; exit 1; }

MISSING=
for N in $NAMES; do
  grep -qF "\`$N\`" "$DESIGN" || MISSING="$MISSING $N"
done

if [ -n "$MISSING" ]; then
  echo "metric names emitted in src/ but undocumented in DESIGN.md"
  echo "section 12 (add a table row with unit and meaning):"
  for N in $MISSING; do echo "  $N"; done
  exit 1
fi

# The overload runbook (README, DESIGN.md section 13) depends on the
# resilience counters; losing an emission site silently blinds it. Each
# must still be emitted somewhere in src/ (documentation is enforced by
# the generic pass above).
for R in requests_shed drain_cancelled breaker_trips serve_faults_injected; do
  echo "$NAMES" | grep -qx "$R" || {
    echo "required resilience counter '$R' is no longer emitted in src/"
    exit 1
  }
done
exit 0
