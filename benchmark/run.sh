#!/usr/bin/env bash
# The benchmark's one command. Builds the product's `reproduce` binary and the
# benchmark package (release, into one shared target directory), then runs
# the benchmark with the arguments given:
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run; the last line of standard output is the result object
#   benchmark/run.sh                       (or: suite --runs N --seconds S ...)
#       every workload, untraced runs interleaved round-robin and then one
#       traced run each; writes benchmark/out/results.jsonl and
#       benchmark/out/trace.<workload>.jsonl
#   benchmark/run.sh compare A.jsonl B.jsonl
#       holds run set B against run set A under BENCHMARK.json's bounds
#
# Exits 2 with a one-line message when the reproduce binary is missing.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")

# benchmark/.cargo/config.toml points builds started in benchmark/ at the
# root target/; an explicit CARGO_TARGET_DIR wins, made absolute here because
# the two builds start in different directories.
if [ -n "${CARGO_TARGET_DIR:-}" ]; then
    case "$CARGO_TARGET_DIR" in
        /*) ;;
        *) CARGO_TARGET_DIR="$PWD/$CARGO_TARGET_DIR" ;;
    esac
    export CARGO_TARGET_DIR
fi
target=${CARGO_TARGET_DIR:-$root/target}

(cd "$root" && cargo build --release --offline --quiet -p bench --bin reproduce) >&2
(cd "$here" && cargo build --release --offline --quiet) >&2

# The defaults come last: an option given on the command line wins.
defaults=(--reproduce-bin "$target/release/reproduce" --out-dir "$here/out")
case "${1:-suite}" in
    compare)
        exec "$target/release/benchmark" "$@" --spec "$root/BENCHMARK.json"
        ;;
    suite)
        [ $# -gt 0 ] && shift
        exec "$target/release/benchmark" suite "$@" "${defaults[@]}"
        ;;
    *)
        exec "$target/release/benchmark" "$@" "${defaults[@]}"
        ;;
esac
