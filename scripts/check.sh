#!/usr/bin/env bash
# Full local gate: everything CI would hold a change to.
#
#   1. build the sanitize preset (ASan+UBSan, RelWithDebInfo);
#   2. run the complete test suite under the sanitizers (includes the
#      chaos soak and the fuzz corpus; use `ctest -LE slow` manually if
#      you only want the quick tier);
#   3. repeat the wall-clock suites (realtime, udp_fault) three times;
#   4. re-run the fuzz label explicitly — decoder fuzzing is the suite
#      the sanitizers exist for, so its result is surfaced on its own;
#   5. produce a bench export and validate it with `rtct_trace --check`,
#      so the observability schema cannot silently rot.
#
# Usage: scripts/check.sh [extra ctest args...]
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> configure + build (sanitize preset)"
cmake --preset sanitize
cmake --build --preset sanitize -j "$(nproc)"

echo "==> full test suite under ASan/UBSan"
ctest --preset sanitize -j "$(nproc)" "$@"

echo "==> wall-clock suites again, three times each (timing assertions)"
# realtime_test's wake-up budget and udp_fault_test's deadline checks read
# the real clock; repeating them here makes a flaky bound fail in CI
# rather than on a user's machine.
ctest --preset sanitize -R "^(realtime_test|udp_fault_test)$" \
      --repeat until-fail:3 --output-on-failure

echo "==> fuzz label (decoder corpus + random fuzz)"
ctest --preset sanitize -L fuzz --output-on-failure

echo "==> bench export + schema check"
out="build-asan/BENCH_check_sweep.json"
./build-asan/bench/sync_sweep 120 --json "$out"
./build-asan/tools/rtct_trace --check "$out"

echo "==> emulator hot-path bench (digest v3 speedup gate)"
out="build-asan/BENCH_emu_perf.json"
./build-asan/bench/emu_perf --json "$out"
./build-asan/tools/rtct_trace --check "$out"

echo "==> portable-dispatch leg (RTCT_THREADED_DISPATCH=OFF: switch backend)"
# The fast interpreter ships two dispatch backends; CI keeps the portable
# switch one honest with a dedicated build running the CPU + differential
# suites. Correctness only — the perf gates run on computed-goto builds
# (the sanitized full suite above, and plain ctest for absolute numbers).
# golden_digest_test pins every game's v1/v3 digest chains and snapshot
# bytes, so this leg proves the switch backend produces the same state as
# the others; golden_timeline_test pins whole testbed timelines, which
# embed state digests, so the switch backend must reproduce those too.
# The one list below feeds both the build targets and the ctest filter.
portable_tests=(cpu_test cpu_property_test machine_test games_test emu_differential_test
                cores_test agent86_test agent86_determinism_test golden_digest_test
                golden_timeline_test)
cmake -B build-portable -S . -DRTCT_THREADED_DISPATCH=OFF >/dev/null
cmake --build build-portable -j "$(nproc)" --target "${portable_tests[@]}"
ctest --test-dir build-portable -R "^($(IFS='|'; echo "${portable_tests[*]}"))\$" \
      --output-on-failure

echo "==> rollback latency bench (lockstep-vs-rollback acceptance gate)"
out="build-asan/BENCH_rollback_latency.json"
./build-asan/bench/rollback_latency 600 --json "$out"
./build-asan/tools/rtct_trace --check "$out"

echo "==> spectator fan-out bench (encode-once scaling gate)"
out="build-asan/BENCH_spectator_scaling.json"
./build-asan/bench/spectator_scaling 240 --json "$out"
./build-asan/tools/rtct_trace --check "$out"

echo "==> relay scaling bench (1000-session multiplexing gate)"
out="build-asan/BENCH_relay_scaling.json"
./build-asan/bench/relay_scaling 20 --json "$out"
./build-asan/tools/rtct_trace --check "$out"

echo "==> replay seek bench (keyframe random-access gate)"
out="build-asan/BENCH_replay_seek.json"
./build-asan/bench/replay_seek 1200 --seeks 16 --json "$out"
./build-asan/tools/rtct_trace --check "$out"

echo "==> bisect fixture gate (committed twin pair, byte-for-byte)"
sh tests/replay_bisect_test.sh ./build-asan/tools/rtct_replay tests/fixtures

echo "==> relay + CLI regression tests (also covered by the full suite run)"
ctest --preset sanitize -R "relay_test|relay_soak_test|udp_fault_test|cli_netplay_test" \
      --output-on-failure

echo "==> all checks passed"
