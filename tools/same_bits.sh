#!/usr/bin/env bash
# Same-bits check: compare the outputs of the working tree with those of REF.
#
# Usage: tools/same_bits.sh [REF]        (REF defaults to HEAD)
#
# REF is extracted with `git archive` into a temporary directory, so nothing
# is written under .git.  In each tree the script runs `splitopt
# print-default-config` and `splitopt run` for the three experiments, then
# `splitopt verify all`, with OPENBLAS_NUM_THREADS=1 so that BLAS keeps one
# summation order.  Configs, trace CSVs, summaries, stdout, stderr and exit
# codes go to a temporary directory per tree.  The script prints `diff -r` of
# the two directories, exits 1 when they differ, and removes the temporary
# directories.  The two trees run side by side; on a 2-core machine the whole
# check takes about 40 s.
set -euo pipefail

ref=${1:-HEAD}
root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/ref"
git -C "$root" archive "$ref" | tar -x -C "$tmp/ref"

export OPENBLAS_NUM_THREADS=1

run_tree() {  # run_tree TREE OUT: every output of TREE's CLI under OUT
    local out=$2 name status
    mkdir -p "$out"
    for name in fused-lasso constrained-tv-ct lrtv-sr; do
        PYTHONPATH="$1/src" python3 -m splitopt.cli print-default-config "$name" >"$out/$name.ini"
        status=0
        SPLITOPT_OUTPUT_DIR="$out/$name" PYTHONPATH="$1/src" python3 -m splitopt.cli \
            run "$out/$name.ini" >"$out/$name.stdout" 2>"$out/$name.stderr" || status=$?
        echo "$status" >"$out/$name.exit"
    done
    status=0
    PYTHONPATH="$1/src" python3 -m splitopt.cli verify all \
        >"$out/verify.stdout" 2>"$out/verify.stderr" || status=$?
    echo "$status" >"$out/verify.exit"
}

run_tree "$tmp/ref" "$tmp/out-ref" &
ref_pid=$!
run_tree "$root" "$tmp/out-work" &
work_pid=$!
wait "$ref_pid"
wait "$work_pid"

if diff -r "$tmp/out-ref" "$tmp/out-work"; then
    echo "same bits: the working tree matches $ref"
else
    echo "outputs differ between $ref and the working tree" >&2
    exit 1
fi
