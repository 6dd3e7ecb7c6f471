#!/usr/bin/env bash
# Compare the bundled figure outputs of the working tree with those of a git revision.
#
# Usage: tools/diff_bundled_outputs.sh REV
#
# Extracts REV into a temporary directory (`git archive`, removed on exit) and
# runs, in both trees, `pushforward fig1`, `trajectory fig2`, `pushforward
# fig3` and `verify` (on fig2), each at the config's own seed, at --seed 3 and
# at --seed 11: 12 runs per tree, each under `-W error::RuntimeWarning`, so a
# run that warns exits non-zero.  The working tree's 12 runs are then made a
# second time, since outputs must be byte-identical on a rerun.  Exits 1 if
# any output file or exit code differs between REV and the working tree, or
# between the two runs of the working tree, and then prints, for each
# differing file, the largest absolute difference of its numbers
# (tools/diff_sizes.py); else prints the runs' exit codes.  Set PYTHON to choose the interpreter (default
# python3); TMPDIR picks where the extracted tree and the outputs go.
set -euo pipefail

if [ $# -ne 1 ]; then
    echo "usage: $0 REV" >&2
    exit 2
fi
rev=$1
python=${PYTHON:-python3}
root=$(git rev-parse --show-toplevel)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/rev"
git -C "$root" archive "$rev" | tar -x -C "$work/rev"

run_tree() {  # run_tree TREE OUT: the 12 runs of TREE, outputs and exit codes under OUT
    local tree=$1 out=$2 cmd cfg seed dir code
    for run in "pushforward fig1" "trajectory fig2" "pushforward fig3" "verify fig2"; do
        read -r cmd cfg <<<"$run"
        for seed in "" 3 11; do
            dir="$out/${cmd}_${cfg}_seed_${seed:-config}"
            mkdir -p "$dir"
            code=0
            (cd "$work" && PYTHONPATH="$tree/src" "$python" -W error::RuntimeWarning -m dae_transport "$cmd" \
                --config "$tree/src/dae_transport/configs/$cfg.json" --out "$dir" ${seed:+--seed "$seed"}) \
                >/dev/null 2>&1 || code=$?
            echo "$cmd $cfg seed=${seed:-config} exit=$code" >>"$out/exit_codes.txt"
        done
    done
}

run_tree "$work/rev" "$work/out_rev"
run_tree "$root" "$work/out_tree"
run_tree "$root" "$work/out_rerun"
status=0
if "$python" "$root/tools/diff_sizes.py" "$work/out_rev" "$work/out_tree"; then
    cat "$work/out_tree/exit_codes.txt"
    echo "identical: 12 runs, every output file and exit code, $rev vs the working tree"
else
    diff "$work/out_rev/exit_codes.txt" "$work/out_tree/exit_codes.txt" || true
    echo "different: $rev vs the working tree" >&2
    status=1
fi
if "$python" "$root/tools/diff_sizes.py" "$work/out_tree" "$work/out_rerun"; then
    echo "deterministic: the working tree's 12 runs, made twice, are identical"
else
    echo "not deterministic: a rerun of the working tree differs" >&2
    status=1
fi
exit "$status"
