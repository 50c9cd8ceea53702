#!/usr/bin/env bash
# Run each command below twice, against the source of the commit $BASE_SHA
# (unpacked with `git archive`) and against this tree's, and compare the
# exit codes, the lists of files written, every file and the stdout with
# `cmp`.  Exits 1 naming the first output that differs.
#
# Run it from the repository root, with $BASE_SHA a commit the local
# repository has; the outputs go under ${RUNNER_TEMP:-/tmp}/demo-vs-base,
# so point RUNNER_TEMP at an empty directory.  Fix the BLAS thread count
# (OPENBLAS_NUM_THREADS): the demo reports' bytes depend on it.
#
#   BASE_SHA=<commit> OPENBLAS_NUM_THREADS=2 bash tests/compare_with_base.sh
set -eo pipefail
# a change that moves a demo's report bytes on purpose takes that
# demo off this list
out="${RUNNER_TEMP:-/tmp}/demo-vs-base"
mkdir -p "$out/tree"
git archive "$BASE_SHA" | tar -x -C "$out/tree"
# both NAME COMMAND...: run COMMAND in the empty directory
# $out/<side>/NAME against the base commit's source and the head's;
# the exit codes, the stdout and every file written must be the same
both() {
  local name=$1 side src code file; shift
  for side in base head; do
    src="$PWD/src"; [ "$side" = base ] && src="$out/tree/src"
    mkdir -p "$out/$side/$name"
    code=0
    (cd "$out/$side/$name" && PYTHONPATH="$src" "$@" > stdout) || code=$?
    echo "$code" > "$out/$side/$name/exit-code"
    (cd "$out/$side/$name" && find . -type f | sort) > "$out/$side/$name.files"
  done
  cmp "$out/base/$name.files" "$out/head/$name.files" \
    || { echo "$name: other files than the base commit's"; exit 1; }
  while read -r file; do
    cmp "$out/base/$name/$file" "$out/head/$name/$file" \
      || { echo "$name: $file differs from the base commit's"; exit 1; }
  done < "$out/base/$name.files"
}
# each demo's report directory, and the prediction of each demo file
for demo in example1 example2 example2-correlated example3; do
  both "demo-$demo" python -m cyclospec.cli demo "$demo" --n 100 --trials 2 --out .
  # each side predicts its own demo file ($PYTHONPATH is its
  # source), so a changed demo file shows in the prediction
  both "predict-$demo" sh -c 'python -m cyclospec.cli predict \
    --scenario "$PYTHONPATH/cyclospec/demos/$1.json" --out prediction.json' sh "$demo"
  # compare on a demo report: its table and both verdict lines; the
  # exit code is compare's (at n=100, 2 and 2 for example1 and
  # example2, 0 and 0 for example2-correlated and example3)
  both "compare-$demo" sh -c 'python -m cyclospec.cli demo "$1" --n 100 --trials 2 --out run
    python -m cyclospec.cli compare --report run/report.json --tol-rel 0.3' sh "$demo"
done
# every demo at the demo default n=300, the size at which the
# benchmark runs example1 and example2-correlated (example3 at
# n=600): BLAS picks its blocking by size, so a product whose bits
# depend on an operand's memory order (the Haar u is
# Fortran-ordered) may show only at such sizes
for demo in example1 example2 example2-correlated example3; do
  both "demo-$demo-n300" python -m cyclospec.cli demo "$demo" --trials 2 --out .
done
# products are written over an operand in blocks of 128 rows or
# columns: example3 at the benchmark's n=600 runs several blocks,
# and example1 at n=301 (dim 602) ends on a partial one
both demo-example3-n600 python -m cyclospec.cli demo example3 --n 600 --trials 2 --out .
both demo-example1-n301 python -m cyclospec.cli demo example1 --n 301 --trials 1 --out .
# the prediction and the oracle's moments of two expressions
for pair in "anticommutator:a1*b1 + b1*a1" "commutator:i*(a1*b1 - b1*a1)"; do
  name=${pair%%:*}; expr=${pair#*:}
  both "expr-$name" python -m cyclospec.cli predict --expr "$expr" \
    --spectrum geometric:1,0.5,64 --tau-b 1 --tau-b2 2 --out prediction.json
  both "oracle-$name" python -m cyclospec.cli oracle --expr "$expr" --moments 8 \
    --a-model geometric:1,0.5,analytic --tau-b 0.5 --tau-b2 2
  # the closed-form demo's table
  both "formula-demo-$name" python -m cyclospec.cli demo "$name"
done
# moments over matrix models, which multiply words out (cyclospec
# oracle never does), and both chain paths on all 100 criterion-3
# chains; the head's script runs against both sources
both matrix-moments python "$PWD/tests/print_matrix_moments.py"
# every state and weight ask of one recipes-small pass, and every
# weight batch and chain trace of one oracle-chains pass, on each
# tree's package, by key, order and coefficient bits (exits 1 naming a
# layer whose values differ)
python "$PWD/tests/replay_layers.py" --parent "$out/tree" --rounds 1
# a file B, which no demo has: a seeded Hermitian matrix that every
# trial reads without writing, conjugated by the Haar u and bound to
# a second letter through a copy_of entry; dim 150 ends on a partial
# block of the products written over an operand
mkdir -p "$out/file-b"
PYTHONPATH="$PWD/src" python - "$out/file-b" <<'PY'
import json, sys
import numpy as np
from cyclospec.rmtlab import save_matrix_csv
out, n = sys.argv[1], 150
rng = np.random.default_rng(2029)
z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
save_matrix_csv((z + z.conj().T) / (2 * np.sqrt(n)), f"{out}/b.csv")
scenario = {
    "name": "file-b", "n": n, "seed": 7, "trials": 2, "haar_conjugate_b": True,
    "a_spec": {"kind": "geometric", "ratio": 0.5},
    "b_spec": [{"kind": "file", "path": f"{out}/b.csv"}, {"kind": "copy_of", "index": 1}],
    "expression": "b1*a1*b2 + b2*a1*b1",
    "prediction": {"b_state": {"moments": {"b1*b1": 1.0, "b1*b2": 1.0, "b2*b2": 1.0}}},
}
with open(f"{out}/scenario.json", "w", encoding="utf-8") as fh:
    json.dump(scenario, fh)
PY
both simulate-file-b python -m cyclospec.cli simulate \
  --scenario "$out/file-b/scenario.json" --out .
