#!/usr/bin/env bash
# Configure, build, and run the test suite under a sanitizer.
#
#   scripts/sanitize.sh address    # ASan + LSan
#   scripts/sanitize.sh undefined  # UBSan
#   scripts/sanitize.sh thread     # TSan (uses scripts/tsan.supp)
#
# Each sanitizer needs runtime options because the runtime installs its own
# SIGSEGV handler (the MMU-fault path IS the product, see src/vm):
#
# - ASan intercepts SIGSEGV by default and would report our intentional
#   faults on protected cache pages as crashes. handle_segv=0 plus
#   allow_user_segv_handler=1 hands the signal straight to our
#   FaultDispatcher.
# - TSan flags signal handlers that run "signal-unsafe" code; our handler
#   deliberately performs a full fetch RPC inside the fault (the paper's
#   design), so report_signal_unsafe=0 is required; tsan.supp covers only
#   the handler's allocator attribution.
set -euo pipefail

SAN="${1:-address}"
if [ "$#" -gt 0 ]; then shift; fi  # remaining args go to ctest (e.g. -R foo)
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${ROOT}/build-${SAN}"

case "${SAN}" in
  address)
    export ASAN_OPTIONS="handle_segv=0:allow_user_segv_handler=1:detect_leaks=1"
    ;;
  undefined)
    export UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1"
    ;;
  thread)
    export TSAN_OPTIONS="report_signal_unsafe=0:suppressions=${ROOT}/scripts/tsan.supp"
    ;;
  *)
    echo "usage: $0 [address|undefined|thread]" >&2
    exit 2
    ;;
esac

cmake -B "${BUILD}" -S "${ROOT}" -DSRPC_SANITIZE="${SAN}" -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "${BUILD}" -j "$(nproc)"
# The concurrency suite first: the multi-session runtime runs truly
# parallel ground workers against one home arbiter, so it is the suite
# ThreadSanitizer exists for — but it runs under every sanitizer so a
# data race that ASan happens to crash on is caught too.
ctest --test-dir "${BUILD}" --output-on-failure -L concurrency
# Failure-containment matrix next (crash points, partitions, soak): it is
# the suite most likely to trip a sanitizer, so fail fast on it before the
# rest of the tests. scripts/soak.sh layers a many-seed sweep on top. Then
# the observability suite (tracing touches every wire path), then the rest.
ctest --test-dir "${BUILD}" --output-on-failure -L fault -LE concurrency
# Space reincarnation explicitly (also part of -L fault above): the
# kill-and-restart matrix hands one space's state across worker threads —
# halt/join, zombie heap, world-owned RecoveryLog — which is exactly the
# surface TSan must see race-free.
ctest --test-dir "${BUILD}" --output-on-failure -L recovery
ctest --test-dir "${BUILD}" --output-on-failure -L obs
# Pipelining suite explicitly: the future pump and the mailbox
# single-consumer guard are the racy surfaces TSan must see; the fault half
# of the matrix (pipeline_fault_test) already ran under -L fault above.
ctest --test-dir "${BUILD}" --output-on-failure -L pipeline -LE fault
# Zero-copy payload lane: the arena refcounts and the borrowed ByteBuffer's
# copy-on-write are exactly what ASan/LSan (leaked pins) and TSan
# (cross-thread release of the last view) exist to check.
ctest --test-dir "${BUILD}" --output-on-failure -L shm
# The value codec and its compiled layout plans: every encode, decode and
# pointer scan indexes raw images by plan offsets, which is what ASan and
# UBSan check. Run explicitly because CI narrows the catch-all pass below.
ctest --test-dir "${BUILD}" --output-on-failure -L codec
# The golden virtual rows are left out: they check figures, not memory or
# races, and a sanitizer's slowdown buys nothing there.
ctest --test-dir "${BUILD}" --output-on-failure -LE "fault|obs|pipeline|shm|codec|golden" "$@"
