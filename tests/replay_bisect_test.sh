#!/bin/sh
# Bisect-fixture regression: the committed divergent twin pair under
# tests/fixtures/ must stay reproducible bit-for-bit from the generator,
# and `rtct_replay bisect` must produce byte-identical JSON across runs
# that matches the committed expected report (the rtct.bisect.v1 export is
# a stable interface, not best-effort diagnostics). It also checks that a
# recording with the retired digest version 2 (from the corpus beside the
# fixture directory) is refused.
#
# Usage: replay_bisect_test.sh <path-to-rtct_replay> <fixture-dir>
set -u

REPLAY="$1"
FIXTURES="$2"
fails=0
tmp="${TMPDIR:-/tmp}/rtct_bisect_test.$$"
mkdir -p "$tmp" || exit 1
trap 'rm -rf "$tmp"' EXIT

check() {
  desc="$1"
  shift
  if "$@"; then
    echo "ok: $desc"
  else
    echo "FAIL: $desc"
    fails=$((fails + 1))
  fi
}

# 1. The generator reproduces the committed fixtures byte-for-byte.
"$REPLAY" gen-fixture "$tmp" >/dev/null || { echo "FAIL: gen-fixture"; exit 1; }
for f in bisect_twin_a.rpl bisect_twin_b.rpl bisect_expected.json; do
  check "regenerated $f is byte-identical to committed" \
    cmp -s "$tmp/$f" "$FIXTURES/$f"
done

# 2. Bisecting the committed pair is deterministic (two runs, identical
#    bytes) and matches the committed expected report exactly. Exit code 2
#    is the documented "diverged" status.
"$REPLAY" bisect "$FIXTURES/bisect_twin_a.rpl" "$FIXTURES/bisect_twin_b.rpl" \
  > "$tmp/run1.json"
code=$?
check "bisect exits with the diverged status (2)" [ "$code" -eq 2 ]
"$REPLAY" bisect "$FIXTURES/bisect_twin_a.rpl" "$FIXTURES/bisect_twin_b.rpl" \
  > "$tmp/run2.json"
check "two bisect runs are byte-identical" cmp -s "$tmp/run1.json" "$tmp/run2.json"
check "bisect output matches the committed expected JSON" \
  cmp -s "$tmp/run1.json" "$FIXTURES/bisect_expected.json"

# 3. A twin bisected against itself reports a clean verdict with exit 0.
"$REPLAY" bisect "$FIXTURES/bisect_twin_a.rpl" "$FIXTURES/bisect_twin_a.rpl" \
  > "$tmp/self.json"
code=$?
check "self-bisect exits clean (0)" [ "$code" -eq 0 ]
check "self-bisect verdict is identical" \
  grep -q '"verdict":"identical"' "$tmp/self.json"

# 4. A recording stamped with the retired digest version 2 is refused with
#    an explicit error, not verified against digests it cannot compute;
#    --digest-version accepts only 1 and 3.
RETIRED="$FIXTURES/../corpus/rpl2_digest_version_2.rpl"
"$REPLAY" info "$RETIRED" > /dev/null 2> "$tmp/retired.err"
code=$?
check "a digest-version-2 recording is refused (exit 1)" [ "$code" -eq 1 ]
check "the refusal names the digest version" \
  grep -q "digest version 2 is not supported" "$tmp/retired.err"
"$REPLAY" seek "$FIXTURES/bisect_twin_a.rpl" 10 --digest-version 2 \
  > /dev/null 2> "$tmp/dv.err"
code=$?
check "--digest-version 2 is rejected (exit 1)" [ "$code" -eq 1 ]
check "--digest-version 3 seeks" \
  "$REPLAY" seek "$FIXTURES/bisect_twin_a.rpl" 10 --digest-version 3

if [ "$fails" -ne 0 ]; then
  echo "$fails check(s) failed"
  exit 1
fi
echo "all bisect fixture checks passed"
