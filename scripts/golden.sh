#!/usr/bin/env bash
# Golden virtual rows: the deterministic figure, table and ablation benches
# must write byte-identical BENCH_*.json files from one change to the next.
# bench/golden/ holds the expected files; the `golden` ctest label checks
# them.
#
#   scripts/golden.sh                    # rebuild ./build, regenerate bench/golden/
#   scripts/golden.sh build-x            # ... from an alternate build directory
#   ctest --test-dir build -L golden     # check every golden file
#
# Check mode, one ctest entry per binary (the list lives in
# bench/CMakeLists.txt):
#
#   scripts/golden.sh --check <binary> <work-dir> <name>...
#
# runs <binary> at full size in a fresh <work-dir> and compares each
# BENCH_<name>.json it wrote with bench/golden/, byte for byte, printing the
# first differing field on a mismatch. With SRPC_GOLDEN_UPDATE=1 it copies
# the fresh files into bench/golden/ instead, which is how the regenerate
# mode above works. A change that moves a row regenerates on purpose and
# says in CHANGES.md which fields moved and why.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
GOLDEN="${ROOT}/bench/golden"

# Prints where two differing files first part: the line, the comma-separated
# field on it, and both lines.
first_difference() {
  local want="$1" got="$2" line
  line="$({ cmp "${want}" "${got}" 2>&1 || true; } | sed -n 's/.*line \([0-9]*\).*/\1/p')"
  if [ -z "${line}" ]; then
    cmp "${want}" "${got}" || true  # one file is a prefix of the other
    return
  fi
  local a b
  a="$(sed -n "${line}p" "${want}")"
  b="$(sed -n "${line}p" "${got}")"
  local -a fa fb
  IFS=',' read -ra fa <<< "${a}"
  IFS=',' read -ra fb <<< "${b}"
  local n=$(( ${#fa[@]} > ${#fb[@]} ? ${#fa[@]} : ${#fb[@]} ))
  for ((i = 0; i < n; ++i)); do
    if [ "${fa[i]:-}" != "${fb[i]:-}" ]; then
      echo "  first differing field: line ${line}, field $((i + 1)):" \
           "golden '${fa[i]:-<none>}' vs run '${fb[i]:-<none>}'"
      break
    fi
  done
  echo "  golden: ${a}"
  echo "  run:    ${b}"
}

check() {
  local binary="$1" work="$2"
  shift 2
  rm -rf "${work}"
  mkdir -p "${work}"
  # Full size: a smoke-size override from the environment would change
  # every row.
  if ! (cd "${work}" && env -u SRPC_BENCH_NODES "${binary}" > run.log 2>&1); then
    echo "golden: ${binary} failed; its output:" >&2
    tail -n 40 "${work}/run.log" >&2
    return 1
  fi
  local failed=0 name want got
  for name in "$@"; do
    want="${GOLDEN}/BENCH_${name}.json"
    got="${work}/BENCH_${name}.json"
    if [ ! -f "${got}" ]; then
      echo "golden: ${binary} did not write BENCH_${name}.json" >&2
      failed=1
    elif [ "${SRPC_GOLDEN_UPDATE:-0}" = 1 ]; then
      mkdir -p "${GOLDEN}"
      cp "${got}" "${want}"
      echo "golden: wrote ${want}"
    elif [ ! -f "${want}" ]; then
      echo "golden: no golden file ${want} (run scripts/golden.sh)" >&2
      failed=1
    elif ! cmp -s "${want}" "${got}"; then
      echo "golden: BENCH_${name}.json differs from bench/golden/" >&2
      first_difference "${want}" "${got}" >&2
      failed=1
    else
      echo "golden: BENCH_${name}.json matches"
    fi
  done
  return "${failed}"
}

if [ "${1:-}" = "--check" ]; then
  shift
  check "$@"
  exit
fi

BUILD="${1:-build}"
BUILD="${ROOT}/${BUILD#"${ROOT}/"}"
cmake -B "${BUILD}" -S "${ROOT}"
cmake --build "${BUILD}" -j "$(nproc)"
SRPC_GOLDEN_UPDATE=1 ctest --test-dir "${BUILD}" --output-on-failure -L golden
