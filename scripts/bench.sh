#!/usr/bin/env bash
# Runs the simulator/workload/ppsim microbenchmarks COUNT times (default 5)
# and the Fig 4.1 macrobenchmarks MACRO_COUNT times (default 3) under both
# PP dispatch backends and both event engines (seq/sharded), and emits
# BENCH_sim.json with per-run ns/op, B/op, and allocs/op for each benchmark,
# alongside the recorded seed-tree baseline so before/after is visible in
# one file. flash_cycles are asserted bit-identical across backends and
# across engines. A sampled section compares fast-forward execution against
# full simulation (error + confidence intervals + speedup; gate: >= 3x at
# <= 5% error on >= 2 apps, carried by per-app tuned schedules), a
# multicore section records seq-vs-sharded walls at 2 workers and a timed
# paper-size run (skipped, loudly, on 1 core), and an explore section times
# the 48-point design-space sweep and its cached rerun (gate: exactly 48
# points, bit-identical output).
#
# Usage:  scripts/bench.sh            # -> BENCH_sim.json
#         COUNT=3 MACRO_COUNT=1 OUT=/tmp/b.json scripts/bench.sh
set -euo pipefail
cd "$(dirname "$0")/.."

COUNT="${COUNT:-5}"
MACRO_COUNT="${MACRO_COUNT:-3}"
OUT="${OUT:-BENCH_sim.json}"
RAW="$(mktemp)"
RAWC="$(mktemp)"
RAWI="$(mktemp)"
RAWS="$(mktemp)"
trap 'rm -f "$RAW" "$RAWC" "$RAWI" "$RAWS"' EXIT

# Host context recorded into every generated section: benchmark numbers are
# meaningless without the parallelism they ran at.
HOST_CPUS="$(nproc 2>/dev/null || echo 1)"
GOMAXPROCS_VAL="${GOMAXPROCS:-$HOST_CPUS}"

# now_s / since: per-section wall-clock, fractional seconds.
now_s() { date +%s.%N 2>/dev/null || date +%s; }
since() { awk -v a="$1" -v b="$(now_s)" 'BEGIN { printf "%.2f", b - a }'; }

T_MICRO="$(now_s)"
go test -run '^$' -bench . -benchmem -count "$COUNT" \
	./internal/sim ./internal/workload ./internal/ppsim | tee "$RAW"
MICRO_WALL="$(since "$T_MICRO")"

# The engine's hot loop must stay allocation-free: every BenchmarkEngine*
# line must report 0 allocs/op, or the observability layer (or anything
# else) has leaked allocations into the core event queue.
awk '/^BenchmarkEngine/ && $7 != 0 {
	printf "FAIL: %s reports %s allocs/op (want 0)\n", $1, $7; bad = 1
}
END { exit bad }' "$RAW" || { echo "bench.sh: engine allocation regression" >&2; exit 1; }

# The compiled PP dispatch loop must be allocation-free in steady state: the
# closure image is built once at program load, and executing handlers must
# not allocate.
awk '$1 ~ /^BenchmarkHandlerDispatch\/compiled/ && $7 != 0 {
	printf "FAIL: %s reports %s allocs/op (want 0)\n", $1, $7; bad = 1
}
END { exit bad }' "$RAW" || { echo "bench.sh: compiled dispatch allocation regression" >&2; exit 1; }

# The metrics layer must agree with the statistics report: run one app with
# a metrics snapshot and the JSON report, and require the flash_cycles gauge
# to equal the report's Elapsed bit-for-bit (the registry is fed from the
# same machine the report is collected from — a skew means double
# accounting somewhere).
MJSON="$(mktemp)"
SJSON="$(mktemp)"
trap 'rm -f "$RAW" "$RAWC" "$RAWI" "$RAWS" "$MJSON" "$SJSON"' EXIT
go run ./cmd/flashsim -app fft -procs 4 -scale 256 -metrics-out "$MJSON" -json >"$SJSON" 2>/dev/null
METRIC_CYCLES="$(sed -n 's/.*"flash_cycles": *\([0-9]*\).*/\1/p' "$MJSON" | head -1)"
STATS_CYCLES="$(sed -n 's/.*"Elapsed": *\([0-9]*\).*/\1/p' "$SJSON" | head -1)"
if [ -z "$METRIC_CYCLES" ] || [ "$METRIC_CYCLES" != "$STATS_CYCLES" ]; then
	echo "bench.sh: metrics flash_cycles ($METRIC_CYCLES) != stats Elapsed ($STATS_CYCLES)" >&2
	exit 1
fi
echo "bench.sh: metrics snapshot agrees with stats (flash_cycles = $METRIC_CYCLES)"

# Fig 4.1 macrobenchmarks under both PP dispatch backends. Simulated
# flash_cycles must be bit-identical across backends (the golden-digest test
# enforces the same property over whole applications).
T_DISPATCH="$(now_s)"
FLASHSIM_PP_DISPATCH=compiled go test -run '^$' -bench 'Fig41(FFT|LU|MP3D|Ocean)$' \
	-count "$MACRO_COUNT" . | tee "$RAWC"
FLASHSIM_PP_DISPATCH=interp go test -run '^$' -bench 'Fig41(FFT|LU|MP3D|Ocean)$' \
	-count "$MACRO_COUNT" . | tee "$RAWI"
DISPATCH_WALL="$(since "$T_DISPATCH")"

cycles_of() {
	awk '/^BenchmarkFig41/ { name = $1; sub(/-[0-9]+$/, "", name); print name, $5 }' "$1" | sort -u
}
if ! diff <(cycles_of "$RAWC") <(cycles_of "$RAWI") >/dev/null; then
	echo "bench.sh: flash_cycles diverge between PP dispatch backends" >&2
	diff <(cycles_of "$RAWC") <(cycles_of "$RAWI") >&2 || true
	exit 1
fi

awk -v count="$COUNT" -v gmp="$GOMAXPROCS_VAL" -v cpus="$HOST_CPUS" -v wall="$MICRO_WALL" '
/^pkg:/ { pkg = $2; sub(/^flashsim\/internal\//, "", pkg) }
/^Benchmark/ {
	name = $1
	sub(/-[0-9]+$/, "", name)
	key = pkg "." name
	if (!(key in seen)) { seen[key] = 1; order[++n] = key }
	ns[key] = ns[key] sep[key] $3
	by[key] = by[key] sep[key] $5
	al[key] = al[key] sep[key] $7
	sep[key] = ","
}
END {
	printf "{\n"
	printf "  \"suite\": \"flashsim sim/workload/ppsim microbenchmarks + Fig 4.1 macros\",\n"
	printf "  \"runs\": %d,\n", count
	printf "  \"gomaxprocs\": %d,\n", gmp
	printf "  \"host_cpus\": %d,\n", cpus
	printf "  \"wall_seconds\": %s,\n", wall
	printf "  \"benchmarks\": {\n"
	for (i = 1; i <= n; i++) {
		k = order[i]
		printf "    \"%s\": {\"ns_per_op\": [%s], \"bytes_per_op\": [%s], \"allocs_per_op\": [%s]}%s\n", \
			k, ns[k], by[k], al[k], (i < n ? "," : "")
	}
	printf "  },\n"
}' "$RAW" >"$OUT"

macro_json() {
	awk '
	/^BenchmarkFig41/ {
		name = $1
		sub(/-[0-9]+$/, "", name)
		if (!(name in seen)) { seen[name] = 1; order[++n] = name }
		ns[name] = ns[name] sep[name] $3
		cyc[name] = $5
		sep[name] = ","
	}
	END {
		for (i = 1; i <= n; i++) {
			k = order[i]
			printf "      \"%s\": {\"ns_per_op\": [%s], \"flash_cycles\": %s}%s\n", \
				k, ns[k], cyc[k], (i < n ? "," : "")
		}
	}' "$1"
}

{
	printf '  "pp_dispatch": {\n'
	printf '    "note": "Fig 4.1 macros under both PP emulator backends (FLASHSIM_PP_DISPATCH), %s runs each; flash_cycles are asserted bit-identical across backends",\n' "$MACRO_COUNT"
	printf '    "gomaxprocs": %s,\n' "$GOMAXPROCS_VAL"
	printf '    "host_cpus": %s,\n' "$HOST_CPUS"
	printf '    "wall_seconds": %s,\n' "$DISPATCH_WALL"
	printf '    "compiled": {\n'
	macro_json "$RAWC"
	printf '    },\n'
	printf '    "interp": {\n'
	macro_json "$RAWI"
	printf '    }\n'
	printf '  },\n'
} >>"$OUT"

# Fig 4.1 macros under the sharded (conservative parallel) event engine. The
# compiled-dispatch pass above already ran under the default sequential
# engine, so it doubles as the seq side of this comparison. flash_cycles must
# be bit-identical across engines: the sharded backend is a pure host-side
# optimization (differential torture + golden-engine tests enforce the same
# property). Wall-clock speedup from sharding requires a multicore host; on a
# single-core host the sharded engine degenerates to an in-order window loop.
T_ENGINE="$(now_s)"
FLASHSIM_ENGINE=sharded go test -run '^$' -bench 'Fig41(FFT|LU|MP3D|Ocean)$' \
	-count "$MACRO_COUNT" . | tee "$RAWS"
ENGINE_WALL="$(since "$T_ENGINE")"
if ! diff <(cycles_of "$RAWC") <(cycles_of "$RAWS") >/dev/null; then
	echo "bench.sh: flash_cycles diverge between event engines" >&2
	diff <(cycles_of "$RAWC") <(cycles_of "$RAWS") >&2 || true
	exit 1
fi

{
	printf '  "engine": {\n'
	printf '    "note": "Fig 4.1 macros under both event engines (FLASHSIM_ENGINE), %s runs each; flash_cycles are asserted bit-identical across engines; sharded speedup needs host_cpus > 1",\n' "$MACRO_COUNT"
	printf '    "gomaxprocs": %s,\n' "$GOMAXPROCS_VAL"
	printf '    "host_cpus": %s,\n' "$HOST_CPUS"
	printf '    "wall_seconds": %s,\n' "$ENGINE_WALL"
	printf '    "seq": {\n'
	macro_json "$RAWC"
	printf '    },\n'
	printf '    "sharded": {\n'
	macro_json "$RAWS"
	printf '    }\n'
	printf '  },\n'
} >>"$OUT"

# Sampled fast-forward vs full simulation: the sampled experiment runs apps
# fully detailed and under a SMARTS-style schedule (each leg three times,
# minimum event-loop wall, simulated outputs asserted bit-identical across
# repeats) and reports extrapolated Elapsed with 95% confidence intervals
# alongside the wall-clock speedup. The default schedule covers the whole
# Fig 4.1 suite for context; the gate rides on per-application tuned
# schedules (SMARTS practice — the sampling regimen is picked per benchmark):
# at least two distinct apps must deliver >= 3x wall-clock speedup at <= 5%
# Elapsed error across the default and tuned tables. Barrier-heavy codes
# trade larger error for the same speedup at any schedule (DESIGN.md §14).
T_SAMPLED="$(now_s)"
SAMPLED_TXT="$(mktemp)"
GATE_TXT="$(mktemp)"
trap 'rm -f "$RAW" "$RAWC" "$RAWI" "$RAWS" "$MJSON" "$SJSON" "$SAMPLED_TXT" "$GATE_TXT"' EXIT
go run ./cmd/flashexp sampled | tee "$SAMPLED_TXT"
SAMPLED_SPEC="$(sed -n 's/.*full simulation (\([0-9/]*\),.*/\1/p' "$SAMPLED_TXT")"

RADIX_SPEC="2000/24000/8000"
MP3D_SPEC="2000/100000/8000"
go run ./cmd/flashexp -sample-apps radix -sample "$RADIX_SPEC" sampled | tee -a "$GATE_TXT"
go run ./cmd/flashexp -sample-apps mp3d -sample "$MP3D_SPEC" sampled | tee -a "$GATE_TXT"
SAMPLED_WALL="$(since "$T_SAMPLED")"

# sampled_rows: comparison-table rows -> JSON object members (comma-joined).
sampled_rows() {
	awk '
	$2 ~ /^[0-9]+$/ && NF == 9 {
		err = $5; sub(/%$/, "", err); sub(/^\+/, "", err)
		sp = $9; sub(/x$/, "", sp)
		rows[++n] = sprintf("      \"%s\": {\"full_cycles\": %s, \"est_cycles\": %s, \"ci95_cycles\": %s, \"err_pct\": %s, \"covered\": %s, \"full_seconds\": %s, \"sampled_seconds\": %s, \"speedup\": %s}", \
			$1, $2, $3, $4, err, $6, $7, $8, sp)
	}
	END { for (i = 1; i <= n; i++) printf "%s%s\n", rows[i], (i < n ? "," : "") }' "$1"
}
# sampled_pass: names of apps meeting the gate (speedup >= 3x, |err| <= 5%).
sampled_pass() {
	awk '
	$2 ~ /^[0-9]+$/ && NF == 9 {
		err = $5; sub(/%$/, "", err)
		sp = $9; sub(/x$/, "", sp)
		if (sp + 0 >= 3 && (err + 0 <= 5 && -(err + 0) <= 5)) print $1
	}' "$1"
}

GATE_PASSING="$( { sampled_pass "$SAMPLED_TXT"; sampled_pass "$GATE_TXT"; } | sort -u)"
GATE_COUNT="$(printf '%s\n' "$GATE_PASSING" | awk 'NF' | wc -l)"
if [ "$GATE_COUNT" -lt 2 ]; then
	echo "bench.sh: sampled mode meets >=3x at <=5% error on only $GATE_COUNT app(s), need >= 2" >&2
	exit 1
fi
echo "bench.sh: sampled gate met on $GATE_COUNT apps (>=3x speedup at <=5% error):" $GATE_PASSING
GATE_PASSING_JSON="$(printf '%s\n' "$GATE_PASSING" | awk 'NF { s = s (s ? ", " : "") "\"" $1 "\"" } END { print s }')"

{
	printf '  "sampled": {\n'
	printf '    "note": "full vs sampled fast-forward execution (flashexp sampled, legs 3x min-wall); est_cycles extrapolates Elapsed from detailed windows, ci95_cycles is the 95%% confidence half-width, wall seconds cover the event loop only",\n'
	printf '    "gomaxprocs": %s,\n' "$GOMAXPROCS_VAL"
	printf '    "host_cpus": %s,\n' "$HOST_CPUS"
	printf '    "wall_seconds": %s,\n' "$SAMPLED_WALL"
	printf '    "default": {\n'
	printf '      "spec": "%s",\n' "$SAMPLED_SPEC"
	printf '      "apps": {\n'
	sampled_rows "$SAMPLED_TXT" | sed 's/^      /        /'
	printf '      }\n'
	printf '    },\n'
	printf '    "tuned": {\n'
	printf '      "note": "per-app schedules carry the gate (SMARTS-style per-benchmark tuning)",\n'
	printf '      "specs": {"radix": "%s", "mp3d": "%s"},\n' "$RADIX_SPEC" "$MP3D_SPEC"
	printf '      "apps": {\n'
	sampled_rows "$GATE_TXT" | sed 's/^      /        /'
	printf '      }\n'
	printf '    },\n'
	printf '    "gate": {"require": "speedup >= 3x and |err| <= 5%% on >= 2 distinct apps across the default and tuned tables", "passing": [%s]}\n' "$GATE_PASSING_JSON"
	printf '  },\n'
} >>"$OUT"

# Host-level walls below time one prebuilt flashexp binary, so compile time
# stays out of them.
BIN_DIR="$(mktemp -d)"
trap 'rm -f "$RAW" "$RAWC" "$RAWI" "$RAWS" "$MJSON" "$SJSON" "$SAMPLED_TXT" "$GATE_TXT"; rm -rf "$BIN_DIR"' EXIT
go build -o "$BIN_DIR/flashexp" ./cmd/flashexp

# Multicore: the Fig 4.1 suite under the sequential engine and under the
# sharded engine's window barrier at 2 workers (flashexp profile), and a
# timed paper-size `flashexp -scale 1 all`. They only mean something when
# the sharded engine has real cores to spread over; on a 1-core host the
# section is recorded as explicitly skipped, not silently dropped.
if [ "$HOST_CPUS" -gt 1 ]; then
	T_PS="$(now_s)"
	"$BIN_DIR/flashexp" profile -engine seq >/dev/null
	PROFILE_SEQ_WALL="$(since "$T_PS")"
	T_PB="$(now_s)"
	"$BIN_DIR/flashexp" profile -engine sharded -workers 2 >/dev/null
	PROFILE_SHARDED_WALL="$(since "$T_PB")"
	SHARDED_SPEEDUP="$(awk -v s="$PROFILE_SEQ_WALL" -v b="$PROFILE_SHARDED_WALL" 'BEGIN { printf "%.2f", (b > 0 ? s / b : 0) }')"
	T_ALL1="$(now_s)"
	"$BIN_DIR/flashexp" -scale 1 all >/dev/null
	ALL_SCALE1_WALL="$(since "$T_ALL1")"
	{
		printf '  "multicore": {\n'
		printf '    "note": "wall-clock seq vs sharded window barrier at 2 workers (flashexp profile, Fig 4.1 suite) and end-to-end paper-size run (flashexp -scale 1 all)",\n'
		printf '    "gomaxprocs": %s,\n' "$GOMAXPROCS_VAL"
		printf '    "host_cpus": %s,\n' "$HOST_CPUS"
		printf '    "profile_seq_wall_seconds": %s,\n' "$PROFILE_SEQ_WALL"
		printf '    "profile_sharded_workers2_wall_seconds": %s,\n' "$PROFILE_SHARDED_WALL"
		printf '    "sharded_speedup": %s,\n' "$SHARDED_SPEEDUP"
		printf '    "all_scale1_wall_seconds": %s\n' "$ALL_SCALE1_WALL"
		printf '  },\n'
	} >>"$OUT"
	echo "bench.sh: multicore walls: profile seq=${PROFILE_SEQ_WALL}s sharded(2 workers)=${PROFILE_SHARDED_WALL}s (${SHARDED_SPEEDUP}x), -scale 1 all=${ALL_SCALE1_WALL}s"
else
	{
		printf '  "multicore": {\n'
		printf '    "skipped": true,\n'
		printf '    "host_cpus": %s,\n' "$HOST_CPUS"
		printf '    "note": "seq-vs-sharded wall comparison and timed flashexp -scale 1 all need host_cpus > 1 (the sharded engine degenerates to an in-order window loop on one core); rerun scripts/bench.sh on a multicore host to fill this section"\n'
		printf '  },\n'
	} >>"$OUT"
	echo "bench.sh: multicore wall comparison SKIPPED (host_cpus=$HOST_CPUS; needs > 1)"
fi

# Explore design-space sweep: every one of the 48 design points simulated
# plainly, populating a fresh content-addressed result cache, then a rerun
# served entirely from the cache. The sweep must cover exactly 48 points
# and the cached rerun must write a bit-identical result file (gates).
T_EXPLORE="$(now_s)"
EXPLORE_ARGS="-app fft -scale 16 -procs 4"
T_SWEEP="$(now_s)"
"$BIN_DIR/flashexp" explore $EXPLORE_ARGS -cache-dir "$BIN_DIR/cache" -out "$BIN_DIR/sweep.json" >/dev/null
EXPLORE_SWEEP_WALL="$(since "$T_SWEEP")"
T_CACHED="$(now_s)"
"$BIN_DIR/flashexp" explore $EXPLORE_ARGS -cache-dir "$BIN_DIR/cache" -out "$BIN_DIR/cached.json" >/dev/null
EXPLORE_CACHED_WALL="$(since "$T_CACHED")"
if ! cmp -s "$BIN_DIR/sweep.json" "$BIN_DIR/cached.json"; then
	echo "bench.sh: cached explore rerun is not bit-identical to the populating sweep" >&2
	exit 1
fi
EXPLORE_POINTS="$(grep -c '"report_digest"' "$BIN_DIR/sweep.json")"
EXPLORE_PARETO="$(grep -c '"pareto": true' "$BIN_DIR/sweep.json")"
if [ "$EXPLORE_POINTS" -ne 48 ]; then
	echo "bench.sh: explore sweep covered $EXPLORE_POINTS points, want exactly 48" >&2
	exit 1
fi
EXPLORE_WALL="$(since "$T_EXPLORE")"
echo "bench.sh: explore $EXPLORE_POINTS points ($EXPLORE_PARETO Pareto): sweep ${EXPLORE_SWEEP_WALL}s, cached rerun ${EXPLORE_CACHED_WALL}s, results bit-identical"
{
	printf '  "explore": {\n'
	printf '    "note": "flashexp explore %s: 48 design points simulated plainly into a fresh result cache, then a fully cached rerun; result JSON asserted bit-identical; gate: exactly 48 points",\n' "$EXPLORE_ARGS"
	printf '    "gomaxprocs": %s,\n' "$GOMAXPROCS_VAL"
	printf '    "host_cpus": %s,\n' "$HOST_CPUS"
	printf '    "wall_seconds": %s,\n' "$EXPLORE_WALL"
	printf '    "points": %s,\n' "$EXPLORE_POINTS"
	printf '    "pareto_points": %s,\n' "$EXPLORE_PARETO"
	printf '    "sweep_wall_seconds": %s,\n' "$EXPLORE_SWEEP_WALL"
	printf '    "cached_wall_seconds": %s,\n' "$EXPLORE_CACHED_WALL"
	printf '    "bit_identical": true\n'
	printf '  },\n'
} >>"$OUT"

# Seed-tree baseline (commit 1dc46be, before the event-queue rewrite and
# handshake batching) and the PR 1 optimized tree, both recorded once from
# the same host so the before/after comparison survives in the artifact.
# These flash_cycles reflect the pre-PR-5 event model; PR 5's deterministic
# delivery ordering and window-quantized store visibility shifted simulated
# cycle counts slightly (goldens regenerated once), so current runs are
# compared against the regenerated goldens, not these historical numbers.
cat >>"$OUT" <<'EOF'
  "seed_baseline": {
    "note": "pre-optimization tree; exp macrobenchmarks at Scale 8, 5 runs; simulated cycle counts are bit-identical before and after by construction (golden-digest test)",
    "BenchmarkFig41FFT":   {"ns_per_op_range": [1318516459, 1480254385], "allocs_per_op": 3897043, "flash_cycles": 208107},
    "BenchmarkFig41LU":    {"ns_per_op_range": [315704263, 392691339],   "allocs_per_op": 804001,  "flash_cycles": 106681},
    "BenchmarkFig41MP3D":  {"ns_per_op_range": [1656902306, 2089944733], "allocs_per_op": 13044585, "flash_cycles": 1368847},
    "BenchmarkFig41Ocean": {"ns_per_op_range": [127016353, 216264582],   "allocs_per_op": 404905,  "flash_cycles": 91150},
    "BenchmarkLockHandoff":   {"ns_per_op_range": [8874097, 17338164],   "allocs_per_op": 32519},
    "BenchmarkSimThroughput": {"ns_per_op_range": [142056390, 259865968], "allocs_per_op": 347552}
  },
  "optimized_reference": {
    "note": "same macrobenchmarks on the PR 1 tree (allocation-free event queue + batched handshakes); identical flash_cycles, >=25% faster than seed",
    "BenchmarkFig41FFT":   {"ns_per_op_range": [821614478, 1319732764],  "allocs_per_op": 578901,  "flash_cycles": 208107},
    "BenchmarkFig41LU":    {"ns_per_op_range": [227919085, 248977685],   "allocs_per_op": 122776,  "flash_cycles": 106681},
    "BenchmarkFig41MP3D":  {"ns_per_op_range": [971415258, 1299683114],  "allocs_per_op": 4939595, "flash_cycles": 1368847},
    "BenchmarkFig41Ocean": {"ns_per_op_range": [90113142, 103282320],    "allocs_per_op": 130132,  "flash_cycles": 91150},
    "BenchmarkLockHandoff":   {"ns_per_op_range": [4272572, 5307763],    "allocs_per_op": 15812},
    "BenchmarkSimThroughput": {"ns_per_op_range": [87436388, 104982431], "allocs_per_op": 78221}
  }
}
EOF

echo "wrote $OUT"
