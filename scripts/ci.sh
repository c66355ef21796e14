#!/usr/bin/env bash
# Tier-1 verification: hermetic offline build + tests + docs + the
# observatory round-trips, organised as named stages.
#
#   scripts/ci.sh                 run every stage in order
#   scripts/ci.sh --list          print the stage names and exit
#   scripts/ci.sh --stage NAME    run one stage (repeatable, any order)
#
# --offline is load-bearing: the workspace must never need the crates.io
# registry (see docs/BUILD.md). A PR that introduces a registry
# dependency fails here at dependency resolution, before compiling.
set -euo pipefail
cd "$(dirname "$0")/.."

STAGES=(build test benchmark-api doc fmt clippy dead-code telemetry checkpoint cache bench-history perf scale serve dist trace dashboard overlay)

run_exp() {
    cargo run --release --offline -p fedl-bench --bin experiments -- "$@"
}

# Machine-readable stage ledger (stage name -> wall seconds + status),
# written to results/ci_stages.json on every exit — including failures,
# so the artifact always shows which stage died and how long the ones
# before it took. Stages may set CI_STAGE_STATUS=skip (tool missing),
# CI_STAGE_NOTE=<path> (surfaced in the summary and the ledger) or
# CI_STAGE_FIELDS (more `"key": value` pairs for the stage's ledger row).
STAGE_JSON=results/ci_stages.json
STAGE_RECORDS=()
CURRENT_STAGE=""
CURRENT_START=0
CI_STAGE_STATUS=pass
CI_STAGE_NOTE=""
CI_STAGE_FIELDS=""

write_stage_json() {
    mkdir -p results
    {
        echo '{'
        echo '  "stages": ['
        local i last=$(( ${#STAGE_RECORDS[@]} - 1 ))
        for i in "${!STAGE_RECORDS[@]}"; do
            local sep=','
            [ "$i" -eq "$last" ] && sep=''
            echo "    ${STAGE_RECORDS[$i]}$sep"
        done
        echo '  ]'
        echo '}'
    } > "$STAGE_JSON"
}

record_stage() {
    local name=$1 seconds=$2 status=$3 note=$4 fields=$5
    local json="{\"stage\": \"$name\", \"seconds\": $seconds, \"status\": \"$status\""
    [ -n "$note" ] && json+=", \"note\": \"$note\""
    [ -n "$fields" ] && json+=", $fields"
    STAGE_RECORDS+=("$json}")
}

on_exit() {
    local code=$?
    if [ -n "$CURRENT_STAGE" ]; then
        record_stage "$CURRENT_STAGE" "$(( $(date +%s) - CURRENT_START ))" fail "$CI_STAGE_NOTE" \
            "$CI_STAGE_FIELDS"
    fi
    [ ${#STAGE_RECORDS[@]} -gt 0 ] && write_stage_json
    exit "$code"
}
trap on_exit EXIT

stage_build() {
    cargo build --release --offline --workspace
}

# The per-binary ledger: the stage's row lists every test binary with its
# wall seconds ("binaries") and the note names the slowest, so the next
# slow test shows up. A binary runs from the line cargo prints when it
# starts it (`Running …` or `Doc-tests …`) to the next such line or the
# last line of the run; `-- --quiet` keeps the harness as terse as `-q`
# does while leaving cargo's start lines in. Nothing is skipped.
stage_test() {
    local log=target/ci_test_binaries.txt
    mkdir -p target
    : > "$log"
    cargo test --offline --workspace -- --quiet 2>&1 | while IFS= read -r line; do
        echo "$line"
        echo "${EPOCHREALTIME/[^0-9]/} $line" >> "$log"
    done
    local ledger
    ledger=$(awk '
        function finish() {
            if (name == "") return
            secs = (now - start) / 1e6
            rows = rows sep sprintf("{\"binary\": \"%s\", \"seconds\": %.2f}", name, secs)
            sep = ", "
            count++
            if (secs >= worst) { worst = secs; slowest = name }
        }
        { now = $1 }
        $2 == "Running" || $2 == "Doc-tests" {
            finish()
            if ($2 == "Doc-tests") {
                name = $3 " doc-tests"
            } else {
                src = ($3 == "unittests") ? $4 : $3
                bin = $NF
                sub(/^\(.*\//, "", bin)
                sub(/-[0-9a-f]+\)$/, "", bin)
                if (src == "src/lib.rs") crate = bin
                name = crate " " src
            }
            start = now
        }
        END {
            finish()
            printf "%d\t%s\t%.2f\t%s\n", count, slowest, worst, rows
        }
    ' "$log")
    local count slowest worst rows
    IFS=$'\t' read -r count slowest worst rows <<< "$ledger"
    [ "$count" -gt 0 ] || { echo "cargo test announced no test binary" >&2; exit 1; }
    CI_STAGE_NOTE="slowest of $count binaries: $slowest ($worst s)"
    CI_STAGE_FIELDS="\"binaries\": [$rows]"
}

# The repo benchmark (BENCHMARK.json, benchmark/) is a package of its
# own that compiles against the workspace's public API. Building and
# testing it here means a PR that deletes or renames something the
# harness pinned learns so in CI, not from the benchmark driver.
stage_benchmark_api() {
    cargo build --release --offline --manifest-path benchmark/Cargo.toml
    cargo test --release --offline --manifest-path benchmark/Cargo.toml
}

stage_doc() {
    RUSTDOCFLAGS="${RUSTDOCFLAGS:--D warnings}" cargo doc --no-deps --offline --workspace
}

# Lint stages are guarded: the hermetic container may lack the rustfmt /
# clippy components, and a missing tool must not fail CI — it must say
# so, loudly, so the gap is visible in the log.
stage_fmt() {
    if cargo fmt --version > /dev/null 2>&1; then
        cargo fmt --check
    else
        echo "SKIPPED (tool missing): rustfmt is not installed"
        CI_STAGE_STATUS=skip
    fi
}

stage_clippy() {
    if cargo clippy --version > /dev/null 2>&1; then
        cargo clippy --offline --workspace --all-targets -- -D warnings
    else
        echo "SKIPPED (tool missing): clippy is not installed"
        CI_STAGE_STATUS=skip
    fi
}

# Public items that no binary, example or benchmark probe uses, kept on
# purpose; the dead-code stage leaves them out of its report. One
# `name: reason` per entry; a variant is named `Enum::Variant`.
DEAD_CODE_ALLOW=(
    "approx_eq: float comparison the crates' tests share"
    "approx_eq_f64: float comparison the crates' tests share"
    "force_max_threads: test hook that pins the fan-out team size"
    "identity: GEMM test fixture and the Matrix doc example"
    "new_random: random-init softmax model for the crates' tests"
    "make_radio: a radio at a fixed distance for the latency tests"
    "tables: the golden tests read a report's tables"
    "added: w + alpha * d as a new set, the tests' descent steps"
    "load_pair: real FMNIST loader (DESIGN.md S3, tests/real_data_path.rs)"
    "write_file: IDX writer the real-data round trip uses"
    "load_train_batches: real CIFAR-10 loader (DESIGN.md S3)"
    "small_fmnist_cnn: the paper's CNN scenario (DESIGN.md section 2)"
    "ModelArch::Linear: the convex reference model the runner's tests run on"
)

# Report-only dead-code scan over non-test code (crates/*/src, src,
# examples, benchmark/src; `//` comments and `#[cfg(test)]` items
# stripped, tests/ directories not read). Three rules, each by name:
#   - a `pub fn` / `pub const` whose name appears nowhere else;
#   - a `pub trait` likewise; a `pub struct` / `pub enum` whose name
#     appears, outside string literals, only on `use` lines and `impl`
#     headers besides its definition;
#   - a variant of a `pub enum` that nothing constructs: no
#     `Enum::Variant` (or `Self::Variant` inside `impl Enum`) outside a
#     pattern. A pattern is what lies left of a match arm's `=>`, an
#     `if let` / `while let` / `let … else` left of its `=`, or a
#     `matches!`. Patterns spread over several lines read as
#     constructions, so they can hide a variant, never report one.
# A name shared with another item hides both; confirm a hit by deleting
# it and building the workspace and benchmark/. Never fails the build:
# the counts are the stage note, with the non-test line count under
# crates/*/src: each file up to its first `#[cfg(test)]`, blank and
# `//`-only lines left out, one number per crate and the total.
stage_dead_code() {
    local out=target/ci_dead_code
    rm -rf "$out"
    mkdir -p "$out"
    find crates/*/src src examples benchmark/src -name '*.rs' | sort | xargs awk '
        FNR == 1 { pending = 0; skipping = 0 }
        {
            line = $0
            sub(/\/\/.*/, "", line)
            if (skipping || pending) {
                s = line
                gsub(/"([^"\\]|\\.)*"/, "", s)
                gsub(/'\''(\\.|[^\\'\''])'\''/, "", s)
                opens = gsub(/\{/, "{", s)
                closes = gsub(/\}/, "}", s)
                if (skipping) {
                    depth += opens - closes
                    if (depth <= 0) skipping = 0
                } else if (opens > 0) {
                    pending = 0
                    depth = opens - closes
                    skipping = depth > 0
                } else if (s ~ /;/) {
                    pending = 0
                }
                next
            }
            if (line ~ /^[ \t]*#\[cfg\(test\)\]/) { pending = 1; next }
            print FILENAME ":" FNR ":" line
        }' > "$out/corpus.txt"
    sed -nE 's/^(crates\/[^:]*:[0-9]+):[ \t]*pub (const )?(fn|const|struct|enum|trait) ([A-Za-z_][A-Za-z0-9_]*).*/\1 \3 \4/p' \
        "$out/corpus.txt" > "$out/defs.txt"
    sed -E 's/^[^:]*:[0-9]+://' "$out/corpus.txt" | grep -oE '[A-Za-z_][A-Za-z0-9_]*' \
        | sort | uniq -c > "$out/words.txt" || true
    sed -E 's/^[^:]*:[0-9]+://; s/"([^"\\]|\\.)*"//g' "$out/corpus.txt" \
        | grep -vE '^[ \t]*((pub(\([a-z]+\))? )?use |impl[ <])' \
        | grep -oE '[A-Za-z_][A-Za-z0-9_]*' | sort | uniq -c > "$out/type_words.txt" || true
    # Variant definitions (`def LOC Enum::Variant`) and constructions
    # (`use Enum::Variant`).
    awk '
        {
            match($0, /^[^:]*:[0-9]+:/)
            loc = substr($0, 1, RLENGTH - 1)
            line = substr($0, RLENGTH + 1)
            gsub(/"([^"\\]|\\.)*"/, "\"\"", line)
            if (enum_name != "") {
                if (depth == 1 && line ~ /^[ \t]*[A-Z][A-Za-z0-9_]*[ \t]*([,({=]|$)/) {
                    match(line, /[A-Z][A-Za-z0-9_]*/)
                    print "def " loc " " enum_name "::" substr(line, RSTART, RLENGTH)
                }
                s = line
                depth += gsub(/\{/, "{", s) - gsub(/\}/, "}", s)
                if (depth <= 0) enum_name = ""
                next
            }
            if (match(line, /^[ \t]*pub enum [A-Za-z_][A-Za-z0-9_]*/)) {
                name = substr(line, RSTART, RLENGTH)
                sub(/.*pub enum /, "", name)
                s = line
                depth = gsub(/\{/, "{", s) - gsub(/\}/, "}", s)
                if (depth > 0) enum_name = name
                next
            }
            if (line ~ /^impl[ <]/) {
                head = line
                sub(/[ \t]*(\{|where).*$/, "", head)
                if (head ~ / for /) sub(/.* for /, "", head)
                else { sub(/^impl/, "", head); sub(/^<[^>]*>/, "", head) }
                sub(/<.*/, "", head)
                sub(/.*::/, "", head)
                gsub(/[ \t&]/, "", head)
                impl_type = head
            }
            expr = line
            if (index(expr, "=>")) {
                expr = substr(expr, index(expr, "=>") + 2)
            } else if (expr ~ /(^|[^A-Za-z0-9_])(if|while)[ \t]+let[ \t]/ \
                       || expr ~ /^[ \t]*let[ \t].*[ \t]else([ \t]|$)/) {
                eq = index(expr, " = ")
                expr = eq ? substr(expr, eq + 3) : ""
            }
            sub(/matches!\(.*$/, "", expr)
            while (match(expr, /[A-Z][A-Za-z0-9_]*::[A-Z][A-Za-z0-9_]*/)) {
                path = substr(expr, RSTART, RLENGTH)
                expr = substr(expr, RSTART + RLENGTH)
                if (path ~ /^Self::/) sub(/^Self/, impl_type, path)
                print "use " path
            }
        }' "$out/corpus.txt" > "$out/variants.txt"
    printf '%s\n' "${DEAD_CODE_ALLOW[@]}" | sed 's/: .*//' > "$out/allow.txt"
    # A name is referenced when it occurs more often than it is defined.
    awk '
        FILENAME == ARGV[1] { allowed[$1] = 1; next }
        FILENAME == ARGV[2] { uses[$2] = $1; next }
        FILENAME == ARGV[3] { type_uses[$2] = $1; next }
        { defs[$3]++; row[NR] = $0; name[NR] = $3; kind[NR] = $2 }
        END {
            for (i in row) {
                n = kind[i] ~ /^(struct|enum)$/ ? type_uses[name[i]] : uses[name[i]]
                if (!(name[i] in allowed) && n <= defs[name[i]]) print row[i]
            }
        }' "$out/allow.txt" "$out/words.txt" "$out/type_words.txt" "$out/defs.txt" \
        | sort > "$out/report.txt"
    awk '
        FILENAME == ARGV[1] { allowed[$1] = 1; next }
        $1 == "use" { built[$2] = 1; next }
        { row[NR] = $2 " variant " $3; name[NR] = $3 }
        END { for (i in row) if (!(name[i] in allowed || name[i] in built)) print row[i] }
    ' "$out/allow.txt" "$out/variants.txt" | sort > "$out/variant_report.txt"
    local count variants
    count=$(wc -l < "$out/report.txt")
    variants=$(wc -l < "$out/variant_report.txt")
    echo "public items with no non-test reference: $count (allow-listed: ${#DEAD_CODE_ALLOW[@]})"
    sed 's/^/    /' "$out/report.txt"
    echo "enum variants no non-test code constructs: $variants"
    sed 's/^/    /' "$out/variant_report.txt"
    local lines
    lines=$(find crates/*/src -name '*.rs' | sort | xargs awk '
        FNR == 1 { split(FILENAME, path, "/"); live = 1 }
        /^[ \t]*#\[cfg\(test\)\]/ { live = 0 }
        live && !/^[ \t]*(\/\/.*)?$/ { n[path[2]]++; total++ }
        END { for (c in n) print c " " n[c]; print "~total " total }' \
        | sort | sed 's/^~//' | paste -sd, - | sed 's/,/, /g')
    echo "non-test lines under crates/*/src: $lines"
    CI_STAGE_NOTE="$count unreferenced public items, $variants unconstructed variants; non-test lines: $lines"
}

# Telemetry smoke: a real run must emit a parseable JSONL log holding
# every event kind in the schema (docs/TELEMETRY.md), and the
# telemetry-report subcommand must accept it.
stage_telemetry() {
    cargo run --release --offline --example regret_and_trace > /dev/null
    run_exp telemetry-report results/regret_trace_run.jsonl \
        --require run_start,select,epoch,train,ledger,span,metrics,run_end
}

# Checkpoint round-trip (docs/CHECKPOINT.md): run a few epochs, "kill"
# the process, resume from the snapshot, and demand a bit-identical
# RunOutcome. The example exits non-zero on any divergence; the report
# then proves the save/restore events actually flowed through telemetry.
# Last, the runner's checkpoint is handed to `serve --resume` and
# `dist-worker --resume`: each must refuse it by a typed error (exit 1,
# `resume failed:`), not accept it (0, or hang serving: the timeout) or
# panic (101).
stage_checkpoint() {
    cargo run --release --offline --example checkpoint_resume > /dev/null
    run_exp telemetry-report results/checkpoint_run.jsonl \
        --require checkpoint.saved,checkpoint.restored,epoch,run_start,run_end
    local out=target/ci_checkpoint_stage
    rm -rf "$out"
    mkdir -p "$out"
    cp results/checkpoint_demo.fedlstore "$out/runner.fedlstore"
    cargo build --release --offline -p fedl-bench
    expect_resume_refused "$out" serve --addr 127.0.0.1:0 \
        --checkpoint "$out/runner.fedlstore" --resume
    expect_resume_refused "$out" dist-worker --addr 127.0.0.1:0 \
        --checkpoint "$out/runner.fedlstore" --resume
    rm -rf "$out"
}

# `experiments ARGS…` must exit 1 with `resume failed:` on stderr
# (kept in DIR/stderr) within 60 s.
expect_resume_refused() {
    local dir=$1 code=0
    shift
    timeout 60 target/release/experiments "$@" 2> "$dir/stderr" || code=$?
    if [ "$code" -ne 1 ] || ! grep -q 'resume failed:' "$dir/stderr"; then
        echo "experiments $1 took a foreign checkpoint: exit $code" >&2
        cat "$dir/stderr" >&2
        exit 1
    fi
}

# Warm result cache: a repeat figure or study invocation must be served
# from the content-addressed cache (cache.hit required in the run log;
# for the study, no cache.miss either) and must regenerate byte-identical
# CSVs and print the same report.
stage_cache() {
    local out=target/ci_cache_stage
    rm -rf "$out"
    run_exp --quick --out "$out" --resume fig6 > /dev/null
    cp "$out"/fig6_iid.csv "$out"/fig6_iid.cold.csv
    cp "$out"/fig6_noniid.csv "$out"/fig6_noniid.cold.csv
    run_exp --quick --out "$out" --resume fig6 > /dev/null
    cmp "$out"/fig6_iid.cold.csv "$out"/fig6_iid.csv
    cmp "$out"/fig6_noniid.cold.csv "$out"/fig6_noniid.csv
    run_exp telemetry-report "$out"/cache_run.jsonl --require cache.hit
    run_exp --quick --out "$out" --resume dropout > "$out"/dropout.cold.txt
    run_exp --quick --out "$out" --resume dropout > "$out"/dropout.warm.txt
    cmp "$out"/dropout.cold.txt "$out"/dropout.warm.txt
    run_exp telemetry-report "$out"/cache_run.jsonl --require cache.hit
    if grep -q '"kind":"cache.miss"' "$out"/cache_run.jsonl; then
        echo "a repeat dropout study missed the result cache" >&2
        exit 1
    fi
    rm -rf "$out"
}

# Benchmark history round-trip (docs/OBSERVATORY.md): take two quick
# snapshots, append the first to a fresh history file, gate the second
# against it and append it only on a pass, so a snapshot is never part
# of the baseline it is judged against. Both snapshots time the same
# binary seconds apart, so a REGRESSED verdict here is the shared host
# changing speed between them, not the code: the pair is re-measured, and
# only three such verdicts in a row fail the stage. The trend report's
# HTML must contain a trend chart per kernel.
stage_bench_history() {
    local out=target/ci_bench_history attempt
    for attempt in 1 2 3; do
        rm -rf "$out"
        run_exp bench --quick --out "$out/s1.json" > /dev/null
        run_exp bench --quick --out "$out/s2.json" > /dev/null
        run_exp bench-history append "$out/s1.json" --history "$out/BENCH_HISTORY.jsonl"
        if run_exp bench-history gate "$out/s2.json" --history "$out/BENCH_HISTORY.jsonl"; then
            break
        fi
        [ "$attempt" -lt 3 ] || { echo "same-binary gate failed three times" >&2; exit 1; }
        echo "same-binary snapshots differ (host noise); re-measuring" >&2
    done
    run_exp bench-history append "$out/s2.json" --history "$out/BENCH_HISTORY.jsonl"
    run_exp bench-history report --history "$out/BENCH_HISTORY.jsonl" \
        --html "$out/trend.html" > /dev/null
    grep -q 'svg id="trend-' "$out/trend.html" \
        || { echo "trend report HTML is missing the trend charts" >&2; exit 1; }
    rm -rf "$out"
}

# Hot-kernel perf gate (docs/PERF.md): take a fresh quick snapshot and
# gate it against the rolling per-machine baseline at the *persistent*
# history path; only a snapshot that passes is appended, so a regressed
# run never sits in its own baseline or in any later window. Unlike
# bench-history (which uses throwaway files to test the tooling itself),
# this stage carries perf state across CI runs: an integer-factor
# regression in any hot kernel fails CI here with a non-zero exit from
# the gate subcommand. The snapshot lands at results/BENCH.json so the
# workflow can upload it as an artifact next to the stage ledger.
stage_perf() {
    mkdir -p results
    run_exp bench --quick --out results/BENCH.json > /dev/null
    run_exp bench-history gate results/BENCH.json --history results/BENCH_HISTORY.jsonl
    run_exp bench-history append results/BENCH.json --history results/BENCH_HISTORY.jsonl
    # One 16-row training pass's products and one 16-row local solve, at
    # the 128-96-10 shape train_fedavg_cifar_m100 runs (docs/PERF.md,
    # "The GEMM"): the layer that workload's epoch spends most of its time in.
    require_kernels gemm/forward_16x128x96 gemm/weight_grad_128x16x96 gemm/head_16x96x10 \
        ml/dane_local_solve_16
    # The fused cross-entropy kernel at the training pass's 16x10 and one
    # 256-row chunk of the evaluation walk (docs/PERF.md, "The exp kernel").
    require_kernels ml/cross_entropy_grad_16x10 ml/eval_chunk_256x64
    # The one-shot solve's kernels (docs/PERF.md, "the solve") are what
    # the gate above watches for the layer every FedL decision runs.
    require_kernels solve/project_1k solve/descend_64 solve/descend_1k solve/descend_10k \
        solve/descend_10k_warm solve/descend_tail core/decide_observe_64
    # The regret tracker's hindsight comparator on a K = 80 instance
    # shaped like the served ones (docs/PERF.md, "The hindsight
    # comparator"): the largest layer of a tracked served epoch.
    require_kernels core/regret_record_80
    # The dist column codec (docs/DIST.md, "Packed columns"): one 40k-row
    # context part through encode_frame + decode_frame, and each half on
    # its own (the worker's reply encode, the coordinator's decode).
    require_kernels wire/context_part_40k wire/encode_context_part_40k \
        wire/decode_context_part_40k
    # The envelope's body checksum over that frame's 1.7 MB body, beside
    # the FNV-1a/64 envelope v1 used (docs/CHECKPOINT.md).
    require_kernels store/envelope_checksum_1m7 store/fnv1a64_1m7
    # The sharded plane's per-epoch stages beside the wire (docs/PERF.md,
    # "The 100k dist epoch budget"): a worker's context walk, below and
    # above the realize grain, and the coordinator's decision hygiene.
    require_kernels scale/context_part_10k scale/context_part_100k core/sanitize_1k_of_80k
    CI_STAGE_NOTE="results/BENCH.json"
}

# The quick snapshot `perf` wrote must carry the named kernels; a stage
# run on its own takes the snapshot first.
require_kernels() {
    [ -f results/BENCH.json ] || run_exp bench --quick --out results/BENCH.json > /dev/null
    local kernel
    for kernel in "$@"; do
        grep -q "\"$kernel\"" results/BENCH.json \
            || { echo "quick snapshot is missing the $kernel kernel" >&2; exit 1; }
    done
}

# Columnar scale tier (docs/SCALE.md): the quick suite must measure the
# 10k-tier scheduler kernels — and the 10k solve, which the scale/
# kernels leave out and which used to cost ~14x everything they time.
# The lane-group realization is then held to the scalar oracle over the
# release-mode sweep (over a million client-epochs; a debug build of the
# same test runs a small one), and the tests that pin the realization
# window and the lockstep Poisson sampler run in release beside it, with
# population_golden (the pinned 100k population, and a shard's static
# columns == the full build's rows, zero elsewhere). The lane ports of
# libm's ln, cos, pow(10, ·), sincos, log10 and exp
# (fedl_linalg::lanemath) run their ignored release sweeps: at least
# 10^8 inputs per function, each against libm by to_bits. The sweeps'
# counts and each binary's pass count are the stage note.
stage_scale() {
    require_kernels scale/score_update_10k scale/rounding_10k scale/epoch_realize_10k \
        solve/descend_10k
    local log=target/ci_scale_lane_parity.txt
    cargo test --release --offline -p fedl-sim --test lane_parity --test columnar_parity \
        --test window --test alloc_free --test population_golden -- --nocapture 2>&1 | tee "$log"
    cargo test --release --offline -p fedl-linalg --test lanes 2>&1 | tee -a "$log"
    cargo test --release --offline -p fedl-linalg --test lanemath -- --include-ignored \
        --nocapture 2>&1 | tee -a "$log"
    local compared passes libm="" function count
    compared=$(grep -o '^[0-9]* client-epochs' "$log") \
        || { echo "lane parity sweep printed no client-epoch count" >&2; exit 1; }
    for function in ln cos exp10 sin_cos log10 exp; do
        count=$(grep -o "^[0-9]* $function inputs" "$log" | grep -o '^[0-9]*') \
            || { echo "the $function sweep printed no input count" >&2; exit 1; }
        [ "$count" -ge 100000000 ] \
            || { echo "the $function sweep compared $count inputs, under 10^8" >&2; exit 1; }
        libm="$libm${libm:+, }$function $count"
    done
    # `Running tests/window.rs (…)` names the binary the next
    # `test result:` line belongs to.
    passes=$(awk '
        $1 == "Running" { bin = $2; sub(/^.*\//, "", bin); sub(/\.rs$/, "", bin) }
        $1 == "test" && $2 == "result:" { out = out sep bin " " $4; sep = ", " }
        END { print out }
    ' "$log")
    [ "$(grep -c '^test result: ok' "$log")" -eq 7 ] \
        || { echo "expected seven passing test binaries in $log" >&2; exit 1; }
    CI_STAGE_NOTE="lane parity: $compared; libm sweeps: $libm inputs; passed: $passes"
}

# Federation service (docs/SERVE.md): a real loadgen round-trip over
# localhost TCP, verified bit-for-bit against the in-process reference;
# the same over populations of many join windows, 2 000 and 20 000
# clients (both ends under an I/O deadline, so a pipeline that stalls
# fails the stage instead of hanging it); then the kill +
# checkpoint-restart determinism check — the two halves of an
# interrupted served run concatenated must byte-compare equal to the
# uninterrupted run's selections.
stage_serve() {
    local out=target/ci_serve_stage
    rm -rf "$out"
    mkdir -p "$out"
    local scenario=(--clients 40 --seed 11 --budget 1000000 --min-participants 3 --policy fedl)
    # Compile up front so the backgrounded server below starts serving
    # immediately instead of racing the port-file wait against a cold
    # release build (and so two cargo invocations never contend for the
    # build-directory lock).
    cargo build --release --offline -p fedl-bench

    # Uninterrupted served run over TCP, checked against the reference.
    run_exp serve --addr 127.0.0.1:0 --port-file "$out/port" "${scenario[@]}" &
    local server_pid=$!
    for _ in $(seq 300); do [ -s "$out/port" ] && break; sleep 0.1; done
    [ -s "$out/port" ] || { echo "server never wrote its port file" >&2; exit 1; }
    local addr="127.0.0.1:$(cat "$out/port")"
    run_exp loadgen --addr "$addr" "${scenario[@]}" --epochs 12 \
        --out "$out/full.jsonl" --verify-reference --shutdown
    wait "$server_pid"

    # More clients than one window of pipelined joins.
    local crowd=(--clients 2000 --seed 11 --budget 1000000 --min-participants 10
        --policy fedavg --io-timeout 30)
    rm -f "$out/port"
    run_exp serve --addr 127.0.0.1:0 --port-file "$out/port" "${crowd[@]}" &
    server_pid=$!
    for _ in $(seq 300); do [ -s "$out/port" ] && break; sleep 0.1; done
    [ -s "$out/port" ] || { echo "server never wrote its port file" >&2; exit 1; }
    addr="127.0.0.1:$(cat "$out/port")"
    run_exp loadgen --addr "$addr" "${crowd[@]}" --epochs 3 --verify-reference --shutdown
    wait "$server_pid"

    # 313 windows, each leaving in grouped writes (docs/SERVE.md
    # "Ordering"): a held frame that is never written stalls the
    # pipeline, and the deadline turns that into a failure.
    local multitude=(--clients 20000 --seed 11 --budget 1000000 --min-participants 10
        --policy fedavg --io-timeout 30)
    rm -f "$out/port"
    run_exp serve --addr 127.0.0.1:0 --port-file "$out/port" "${multitude[@]}" &
    server_pid=$!
    for _ in $(seq 300); do [ -s "$out/port" ] && break; sleep 0.1; done
    [ -s "$out/port" ] || { echo "server never wrote its port file" >&2; exit 1; }
    addr="127.0.0.1:$(cat "$out/port")"
    run_exp loadgen --addr "$addr" "${multitude[@]}" --epochs 3 --verify-reference --shutdown
    wait "$server_pid"

    # Kill + restart: 6 epochs with checkpoints, shutdown, resume, 6 more.
    rm -f "$out/port"
    run_exp serve --addr 127.0.0.1:0 --port-file "$out/port" "${scenario[@]}" \
        --checkpoint "$out/ckpt.fedlstore" --checkpoint-every 2 &
    server_pid=$!
    for _ in $(seq 300); do [ -s "$out/port" ] && break; sleep 0.1; done
    addr="127.0.0.1:$(cat "$out/port")"
    run_exp loadgen --addr "$addr" "${scenario[@]}" --epochs 6 \
        --out "$out/half1.jsonl" --shutdown
    wait "$server_pid"
    rm -f "$out/port"
    run_exp serve --addr 127.0.0.1:0 --port-file "$out/port" "${scenario[@]}" \
        --checkpoint "$out/ckpt.fedlstore" --resume &
    server_pid=$!
    for _ in $(seq 300); do [ -s "$out/port" ] && break; sleep 0.1; done
    addr="127.0.0.1:$(cat "$out/port")"
    run_exp loadgen --addr "$addr" "${scenario[@]}" --epochs 6 --start-epoch 6 \
        --out "$out/half2.jsonl" --shutdown
    wait "$server_pid"
    cat "$out/half1.jsonl" "$out/half2.jsonl" | cmp - "$out/full.jsonl" \
        || { echo "restarted server diverged from the uninterrupted run" >&2; exit 1; }
    rm -rf "$out"
}

# Distributed execution (docs/DIST.md): a real 2-worker run over
# spawned worker processes must produce selections byte-identical to
# the single-process reference (--workers 0 writes the reference
# artifact through the same JSONL path). The spawned workers prepare
# each next context part between requests; the determinism tests pin
# those parts to the on-demand frames, in release as the workers run.
stage_dist() {
    local out=target/ci_dist_stage
    rm -rf "$out"
    mkdir -p "$out"
    local scenario=(--clients 40 --seed 11 --budget 1000000 --min-participants 3 --policy fedl)
    cargo test --release --offline -p fedl-dist --test determinism
    cargo build --release --offline -p fedl-bench
    run_exp dist --workers 0 "${scenario[@]}" --epochs 10 --out "$out/reference.jsonl"
    run_exp dist --workers 2 "${scenario[@]}" --epochs 10 --out "$out/dist.jsonl" \
        --verify-reference
    cmp "$out/dist.jsonl" "$out/reference.jsonl" \
        || { echo "2-worker dist run diverged from the single-process reference" >&2; exit 1; }
    rm -rf "$out"
}

# Distributed tracing + live metrics plane (docs/TELEMETRY.md): a real
# 2-worker spawned run with tracing on must merge into a cross-process
# trace where every worker shard span resolves to a coordinator epoch
# span (the "(100%)" linkage line), the HTML report must carry both
# SVG panels, and a live `experiments stats` poll against the running
# coordinator must answer with a non-empty registry snapshot mid-run.
stage_trace() {
    local out=target/ci_trace_stage
    rm -rf "$out"
    mkdir -p "$out"
    local scenario=(--clients 40 --seed 11 --budget 1000000 --min-participants 3 --policy fedl)
    cargo build --release --offline -p fedl-bench
    run_exp dist --workers 2 "${scenario[@]}" --epochs 10 --out "$out/dist.jsonl" \
        --telemetry "$out/trace.jsonl" \
        --stats-addr 127.0.0.1:0 --stats-port-file "$out/stats.port"
    for log in trace.jsonl trace.worker-0.jsonl trace.worker-1.jsonl; do
        [ -s "$out/$log" ] || { echo "dist run did not write $log" >&2; exit 1; }
    done
    run_exp trace-report "$out/trace.jsonl" \
        "$out/trace.worker-0.jsonl" "$out/trace.worker-1.jsonl" \
        --html "$out/trace.html" | tee "$out/trace.txt"
    grep -q '(100%)' "$out/trace.txt" \
        || { echo "not every worker span resolved to a coordinator epoch" >&2; exit 1; }
    grep -q 'critical-path attribution' "$out/trace.txt" \
        || { echo "trace report is missing the critical-path table" >&2; exit 1; }
    for panel in trace-waterfall trace-critical-path; do
        grep -q "svg id=\"$panel\"" "$out/trace.html" \
            || { echo "trace HTML is missing the $panel panel" >&2; exit 1; }
    done

    # Live stats: poll a running coordinator (the serve binary blocks
    # until loadgen sends --shutdown, so the window is not racy).
    rm -f "$out/port"
    run_exp serve --addr 127.0.0.1:0 --port-file "$out/port" "${scenario[@]}" \
        --telemetry "$out/serve.jsonl" &
    local server_pid=$!
    for _ in $(seq 300); do [ -s "$out/port" ] && break; sleep 0.1; done
    [ -s "$out/port" ] || { echo "server never wrote its port file" >&2; exit 1; }
    local addr="127.0.0.1:$(cat "$out/port")"
    run_exp stats --addr "$addr" | tee "$out/stats.txt"
    grep -q 'live stats from' "$out/stats.txt" \
        || { echo "stats poll printed no snapshot header" >&2; exit 1; }
    grep -q 'proto.frame_bytes' "$out/stats.txt" \
        || { echo "stats snapshot is missing the wire histograms" >&2; exit 1; }
    run_exp loadgen --addr "$addr" "${scenario[@]}" --epochs 4 --shutdown > /dev/null
    wait "$server_pid"
    rm -rf "$out"
}

# Attribution dashboard: the telemetry round-trip log must render an
# HTML dashboard containing all four chart panels.
stage_dashboard() {
    [ -f results/regret_trace_run.jsonl ] \
        || cargo run --release --offline --example regret_and_trace > /dev/null
    local html=target/ci_dashboard.html
    rm -f "$html"
    run_exp dashboard results/regret_trace_run.jsonl --html "$html" > /dev/null
    for chart in regret-curve budget-burndown selection-heatmap phase-breakdown; do
        grep -q "svg id=\"$chart\"" "$html" \
            || { echo "dashboard HTML is missing chart '$chart'" >&2; exit 1; }
    done
    rm -f "$html"
}

# Multi-run overlay: two policies on the same sample path must overlay
# into one dashboard with both policy legends and both overlay charts.
stage_overlay() {
    cargo run --release --offline --example policy_run_logs > /dev/null
    local html=target/ci_overlay.html
    rm -f "$html"
    run_exp dashboard results/overlay_fedl_run.jsonl results/overlay_fedavg_run.jsonl \
        --html "$html" > /dev/null
    for chart in regret-overlay budget-overlay; do
        grep -q "svg id=\"$chart\"" "$html" \
            || { echo "overlay HTML is missing chart '$chart'" >&2; exit 1; }
    done
    for policy in FedL FedAvg; do
        grep -q "class=\"legend\">$policy<" "$html" \
            || { echo "overlay HTML is missing the $policy legend" >&2; exit 1; }
    done
    rm -f "$html"
}

usage() {
    echo "usage: scripts/ci.sh [--list] [--stage NAME]..." >&2
    echo "stages: ${STAGES[*]}" >&2
}

SELECTED=()
while [ $# -gt 0 ]; do
    case "$1" in
        --list)
            printf '%s\n' "${STAGES[@]}"
            exit 0
            ;;
        --stage)
            [ $# -ge 2 ] || { echo "--stage needs a name" >&2; usage; exit 1; }
            SELECTED+=("$2")
            shift 2
            ;;
        -h|--help)
            usage
            exit 0
            ;;
        *)
            echo "unknown argument: $1" >&2
            usage
            exit 1
            ;;
    esac
done
[ ${#SELECTED[@]} -gt 0 ] || SELECTED=("${STAGES[@]}")

# Validate the selection up front so a typo fails before any work runs.
for name in "${SELECTED[@]}"; do
    case " ${STAGES[*]} " in
        *" $name "*) ;;
        *) echo "unknown stage: $name" >&2; usage; exit 1 ;;
    esac
done

SUMMARY=()
for name in "${SELECTED[@]}"; do
    echo "==> stage: $name"
    CURRENT_STAGE=$name
    CURRENT_START=$(date +%s)
    CI_STAGE_STATUS=pass
    CI_STAGE_NOTE=""
    CI_STAGE_FIELDS=""
    "stage_${name//-/_}"
    end=$(date +%s)
    record_stage "$name" "$((end - CURRENT_START))" "$CI_STAGE_STATUS" "$CI_STAGE_NOTE" \
        "$CI_STAGE_FIELDS"
    SUMMARY+=("$(printf '%-14s %4ds  %-4s %s' "$name" "$((end - CURRENT_START))" \
        "$CI_STAGE_STATUS" "$CI_STAGE_NOTE")")
    CURRENT_STAGE=""
done
write_stage_json

echo "==> stage summary"
printf '    %s\n' "${SUMMARY[@]}"
echo "==> stage ledger: $STAGE_JSON"
echo "==> OK"
