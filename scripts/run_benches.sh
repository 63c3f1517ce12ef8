#!/usr/bin/env sh
# Run every benchmark harness and collect its BENCH_<name>.json
# artifact, plus the BENCH_<name>.<figure>.json artifacts of the other
# figures it computes from the same runs (fig07_speedup's one
# workload x scheme matrix also writes Figs. 1, 9, 11 and 12).
# New harnesses are picked up automatically (the loop globs
# build-dir/bench/*): abl_batch, for example, runs its full workload x
# batch-size sweep here, while CI's quick smoke passes it a reduced
# positional query count.
#
# Usage: scripts/run_benches.sh [--trace-dir DIR] [--metrics-dir DIR] \
#            [--validate] [--faults [SPEC]] [build-dir] [output-dir] \
#            [threads]
#   --trace-dir DIR  also capture Perfetto timelines: each harness gets
#                    --trace DIR/TRACE_<name>.json (merged file, plus
#                    per-cell files next to it); load them at
#                    https://ui.perfetto.dev
#   --metrics-dir DIR  also sample time-series metrics: each harness
#                    gets --metrics DIR/METRICS_<name>.csv (see
#                    docs/observability.md; needs -DQEI_METRICS=ON,
#                    the default)
#   --validate  evaluate each harness's paper expectations (the harness
#               prints its PASS/WARN/FAIL table and exits non-zero on
#               FAIL), then fold all artifacts through tools/qei-validate
#               and regenerate output-dir/EXPERIMENTS.md from them. The
#               script's exit code covers both.
#   --faults[=SPEC]  fault-matrix smoke mode: run only the robustness
#               harnesses (abl_fault --validate, and abl_overload
#               --validate at its smoke query count) plus fig07_speedup
#               and abl_multicore under the fault mix SPEC (default
#               "pf=0.03,bh=0.01,fw=0.01,flush=20000"; grammar in
#               docs/robustness.md). abl_fault sets its own per-mix
#               faults; fig07, abl_multicore and abl_overload inherit
#               SPEC via --faults. abl_multicore, abl_overload and
#               fig07's Fig. 9 view (checked by tools/qei-validate)
#               must still pass their bands — recovery only moves
#               timing inside the tolerance, never results, and shed
#               queries never consume a fault decision.
#   build-dir   cmake build tree (default: build); configured+built
#               here if the bench binaries are missing
#   output-dir  where the BENCH_*.json files land (default: .)
#   threads     host threads per harness (default: "auto" = all
#               hardware threads); every task still simulates a private
#               world, so results are identical at any thread count
# A relative build-dir, output-dir, --trace-dir or --metrics-dir given
# on the command line is taken from the directory the script is run
# from; the defaults (build, .) are relative to the repository root.
# The script reads no environment variable.
set -eu

# An explicitly given directory, anchored to the caller's working
# directory before the script moves to the repository root.
from_caller() {
    case $1 in
        /*) printf '%s\n' "$1" ;;
        *) printf '%s\n' "$PWD/$1" ;;
    esac
}

trace_dir=
metrics_dir=
validate=
faults=
fault_spec="pf=0.03,bh=0.01,fw=0.01,flush=20000"
while [ $# -gt 0 ]; do
    case $1 in
        --trace-dir)
            [ $# -ge 2 ] || { echo "--trace-dir needs a value" >&2; exit 2; }
            trace_dir=$(from_caller "$2")
            shift 2
            ;;
        --trace-dir=*)
            trace_dir=$(from_caller "${1#--trace-dir=}")
            shift
            ;;
        --metrics-dir)
            [ $# -ge 2 ] || { echo "--metrics-dir needs a value" >&2; exit 2; }
            metrics_dir=$(from_caller "$2")
            shift 2
            ;;
        --metrics-dir=*)
            metrics_dir=$(from_caller "${1#--metrics-dir=}")
            shift
            ;;
        --validate)
            validate=1
            shift
            ;;
        --faults)
            faults=1
            shift
            ;;
        --faults=*)
            faults=1
            fault_spec=${1#--faults=}
            shift
            ;;
        *)
            break
            ;;
    esac
done

build_dir=build
out_dir=.
if [ -n "${1:-}" ]; then
    build_dir=$(from_caller "$1")
fi
if [ -n "${2:-}" ]; then
    out_dir=$(from_caller "$2")
fi
threads=${3:-auto}

repo_dir=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
cd "$repo_dir"

if [ ! -d "$build_dir/bench" ]; then
    cmake -B "$build_dir" -S .
    cmake --build "$build_dir" -j
fi
if [ -n "$validate$faults" ] && [ ! -x "$build_dir/tools/qei-validate" ]; then
    cmake --build "$build_dir" -j --target qei-validate
fi

mkdir -p "$out_dir"
if [ -n "$trace_dir" ]; then
    mkdir -p "$trace_dir"
fi
if [ -n "$metrics_dir" ]; then
    mkdir -p "$metrics_dir"
fi

# Fault-matrix smoke mode: the robustness harness (which hard-gates
# the recovery invariant and its own per-mix configs), plus the paper
# matrix run *under* the mix — its Fig. 9 bands must still hold,
# because recovery only moves timing within tolerance.
if [ -n "$faults" ]; then
    echo "== fault-matrix smoke (spec: $fault_spec, threads=$threads)"
    status=0
    "$build_dir/bench/abl_fault" --threads "$threads" --validate \
        --json "$out_dir/BENCH_FAULT_abl_fault.json" || status=1
    # Only the Fig. 9 view is gated: the Fig. 7 and Fig. 12 snort
    # bands FAIL under the default mix because software-recovery
    # re-runs overlap in time (ROADMAP.md item 2a).
    rm -f "$out_dir/BENCH_FAULT_fig07_speedup".*.json
    "$build_dir/bench/fig07_speedup" --threads "$threads" \
        --faults "$fault_spec" \
        --json "$out_dir/BENCH_FAULT_fig07_speedup.json" || status=1
    "$build_dir/tools/qei-validate" \
        "$out_dir/BENCH_FAULT_fig07_speedup.fig09_end_to_end.json" ||
        status=1
    # Multi-core issue recovers on every lane.
    "$build_dir/bench/abl_multicore" --threads "$threads" \
        --validate --faults "$fault_spec" \
        --json "$out_dir/BENCH_FAULT_abl_multicore.json" || status=1
    # Overload resilience under chaos: admission, shedding, and
    # degradation must keep their gates while faults fire.
    "$build_dir/bench/abl_overload" --threads "$threads" \
        --validate --faults "$fault_spec" \
        --json "$out_dir/BENCH_FAULT_abl_overload.json" 400 || status=1
    if [ "$status" -eq 0 ]; then
        echo "== fault-matrix smoke: PASS"
    else
        echo "== fault-matrix smoke: FAIL" >&2
    fi
    exit $status
fi

summary=
artifacts=
suite_start=$(date +%s)
status=0
for bench in "$build_dir"/bench/*; do
    [ -x "$bench" ] || continue
    name=$(basename "$bench")
    case $name in
        micro_primitives) continue ;; # google-benchmark, no --json
    esac
    echo "== $name (threads=$threads)"
    start=$(date +%s)
    set --
    if [ -n "$trace_dir" ]; then
        set -- "$@" --trace "$trace_dir/TRACE_$name.json"
    fi
    if [ -n "$metrics_dir" ]; then
        set -- "$@" --metrics "$metrics_dir/METRICS_$name.csv"
    fi
    if [ -n "$validate" ]; then
        set -- "$@" --validate
    fi
    # A harness may also write the figures it computes from the same
    # runs next to its artifact, as BENCH_<name>.<figure>.json (fig07
    # writes Figs. 1, 9, 11 and 12). Drop stale ones first, so only
    # files this run wrote reach qei-validate.
    rm -f "$out_dir/BENCH_$name".*.json
    # Capture the harness's real exit code: a non-zero exit (crash,
    # artifact-write failure, or a FAIL verdict under --validate) must
    # reach the summary and the script's own exit status.
    rc=0
    "$bench" --threads "$threads" \
        --json "$out_dir/BENCH_$name.json" "$@" || rc=$?
    if [ "$rc" -eq 0 ]; then
        result=pass
    else
        echo "** $name failed (exit $rc)" >&2
        result="FAIL($rc)"
        status=1
    fi
    artifacts="$artifacts $out_dir/BENCH_$name.json"
    for view in "$out_dir/BENCH_$name".*.json; do
        if [ -e "$view" ]; then
            artifacts="$artifacts $view"
        fi
    done
    end=$(date +%s)
    summary="$summary$name|$result|$((end - start))
"
done
suite_end=$(date +%s)

echo
echo "== summary (threads=$threads)"
printf '%-24s %-9s %s\n' harness result seconds
printf '%-24s %-9s %s\n' ------- ------ -------
printf '%s' "$summary" | while IFS='|' read -r name result secs; do
    [ -n "$name" ] || continue
    printf '%-24s %-9s %s\n' "$name" "$result" "$secs"
done
echo "== suite wall time: $((suite_end - suite_start)) s" \
     "(threads=$threads)"
if [ -n "$trace_dir" ]; then
    echo "== traces in $trace_dir (ui.perfetto.dev)"
fi
if [ -n "$metrics_dir" ]; then
    echo "== metrics CSVs in $metrics_dir"
fi

if [ -n "$validate" ]; then
    echo
    # shellcheck disable=SC2086 # word-splitting the path list is intended
    if ! "$build_dir/tools/qei-validate" \
            --emit-experiments "$out_dir/EXPERIMENTS.md" $artifacts; then
        status=1
    fi
    echo "== regenerated $out_dir/EXPERIMENTS.md" \
         "(commit it over the repo copy if bands changed)"
fi
exit $status
