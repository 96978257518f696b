#!/usr/bin/env bash
#===------------------------------------------------------------------------===#
#
# Benchmark trajectory: builds and runs the three timing benches and
# writes one BENCH_<name>.json per binary (variant -> key -> seconds,
# including the row-batching on/off pairs), so the perf history of the
# repo is machine-readable. Run from the repo root:
#
#   tools/bench.sh                 # full-size runs into ./BENCH_*.json
#   OUT=perf tools/bench.sh        # JSON files under ./perf/
#   MFD_CELLS=65536 MFD_REPS=3 tools/bench.sh   # quicker sweep
#
# Knobs (inherited by the binaries): MFD_CELLS, MFD_LARGE_BOX, MFD_REPS,
# MFD_THREADS; BUILD selects the build tree (default: build).
#
#===------------------------------------------------------------------------===#

set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${BUILD:-build}"
OUT="${OUT:-.}"
JOBS="${JOBS:-$(nproc 2>/dev/null || echo 2)}"
BENCHES=(bench_fig6_small bench_fig6_large bench_tiling_shapes
  bench_serve)

# Stamp the reports' "_meta" block with the commit they measured.
BENCH_COMMIT="${BENCH_COMMIT:-$(git rev-parse --short HEAD 2>/dev/null || echo unknown)}"
export BENCH_COMMIT

if [ ! -d "${BUILD}" ]; then
  cmake --preset default
fi
cmake --build "${BUILD}" --target "${BENCHES[@]}" -j "${JOBS}"

mkdir -p "${OUT}"
for B in "${BENCHES[@]}"; do
  BIN="${BUILD}/bench/${B}"
  if [ ! -x "${BIN}" ]; then
    echo "bench: error: ${BIN} is missing or not executable" >&2
    exit 1
  fi
  JSON="${OUT}/BENCH_${B#bench_}.json"
  echo "== ${B} -> ${JSON} =="
  # Write to a temp file and move into place only on success, so a failed
  # run never leaves a truncated BENCH_*.json behind for the perf history.
  TMP="${JSON}.tmp"
  if ! BENCH_JSON="${TMP}" "${BIN}"; then
    rm -f "${TMP}"
    echo "bench: error: ${B} failed; no ${JSON} written" >&2
    exit 1
  fi
  mv "${TMP}" "${JSON}"
done

echo "bench: wrote ${#BENCHES[@]} reports under ${OUT}/"
