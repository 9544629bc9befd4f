#!/bin/sh
# bench.sh — OS-DPOS benchmark gate (see EXPERIMENTS.md).
#
# Runs BenchmarkOSDPOSParallel and BenchmarkDPOSThroughput with -count=5
# -benchmem, writes the best (minimum) ns/op, B/op, and allocs/op per
# benchmark — plus the derived parallel_efficiency_8w of the Transformer
# search, (workers=1 time / workers=8 time) / 8 — to BENCH_osdpos.json,
# and gates against the checked-in baseline scripts/bench_baseline.json:
#
#   1. the headline configuration — Transformer, 8 GPUs, workers=1, the
#      single-threaded incremental candidate search — must not regress
#      more than 10% in time;
#   2. no benchmark with baseline allocation entries may regress more than
#      10% in B/op or allocs/op. The baseline deliberately carries alloc
#      entries only for the deterministic sequential paths (workers=1 and
#      DPOSThroughput): with workers > 1, the live shared pruning bound
#      races — which candidates abort, and how far each gets before it
#      does, depends on completion timing — so the allocated amount varies
#      run to run and parallel alloc minima are not stable enough to gate;
#   3. DPOSThroughput must not regress more than 10% against the recorded
#      baseline. (The original form of this gate demanded >=1.5x over the
#      pre-flattening baseline; that target was met and the baseline has
#      since been refreshed, so the gate now guards the won ground.)
#   4a. warm-start ratios, derived from BenchmarkWarmstartRecompute
#      (Transformer@8GPU, workers=1, cold vs Options.Seed):
#      warmstart_recompute_speedup — same-cluster recompute, where the
#      seed wins and the walk stops after one round — must reach >= 1.5x
#      (measured ~2x on the 1-core container); and
#      warmstart_shrink_speedup — recompute on 7 survivors, where a
#      candidate beats the seed in round one so the seeded walk is
#      byte-identical to the cold one from the first commit on — must
#      stay >= 0.80x, a non-regression floor: seeding must never
#      meaningfully slow fault recovery. The shrink ratio is structurally
#      bounded near 1x — the only differential is completions converted
#      to prunes minus one seed evaluation — see EXPERIMENTS.md,
#      "Warm-started recompute";
#   4. parallel_efficiency_8w must reach the core-scaled target
#      0.5 * min(ncpu, 8) / 8 — i.e. the ISSUE 6 target of >= 0.5 (>=4x
#      at 8 workers) on any >=8-core machine — and must not drop more
#      than 20% below the recorded baseline efficiency. The core scaling
#      exists because worker scaling is physically bounded by the host:
#      a GOMAXPROCS=1 container runs the 8-worker search on one core, so
#      its best possible efficiency is ~1/8 no matter how the search is
#      structured (see EXPERIMENTS.md, "Parallel search scaling"). The
#      host's core count is recorded as "ncpu" in BENCH_osdpos.json so a
#      recorded efficiency is always read against the hardware that
#      produced it.
#
# The script also load-tests the strategy service (see DESIGN.md,
# "Strategy service"): it starts `fastt serve` on an ephemeral port, runs
# cmd/loadgen against a warmed cache for ~3s, and writes req/s and latency
# percentiles to BENCH_serve.json. Gates:
#
#   5. the warm-cache service must sustain >= 10,000 req/s with p99 < 5ms
#      (the ISSUE 7 acceptance floor, absolute — it holds even on a
#      1-core container because warm requests never search);
#   6. when scripts/bench_serve_baseline.json exists and was recorded on a
#      host with the same core count, req/s must not drop more than 33%
#      below it and p99 must not rise more than 2x above it (loose bands:
#      single short windows are noisy; gate 5 is the binding floor). When
#      the baseline is missing the run records BENCH_serve.json and notes
#      record-only mode instead of failing, so the gate bootstraps cleanly.
#
# Usage: scripts/bench.sh            run, write BENCH_osdpos.json +
#                                    BENCH_serve.json, gate
#        scripts/bench.sh --update   also rewrite both baseline files
set -eu
cd "$(dirname "$0")/.."

KEY="BenchmarkOSDPOSParallel/Transformer/workers=1"
KEY8="BenchmarkOSDPOSParallel/Transformer/workers=8"
KEYTP="BenchmarkDPOSThroughput"
KEYWC="BenchmarkWarmstartRecompute/recompute/cold"
KEYWS="BenchmarkWarmstartRecompute/recompute/seeded"
KEYSC="BenchmarkWarmstartRecompute/shrink/cold"
KEYSS="BenchmarkWarmstartRecompute/shrink/seeded"
BASELINE="scripts/bench_baseline.json"
OUT="BENCH_osdpos.json"
SERVE_BASELINE="scripts/bench_serve_baseline.json"
SERVE_OUT="BENCH_serve.json"
NCPU=$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)
RAW="$(mktemp)"
STMP="$(mktemp -d)"
SERVE_PID=""
cleanup() {
	if [ -n "$SERVE_PID" ]; then
		kill "$SERVE_PID" 2>/dev/null || true
	fi
	rm -rf "$RAW" "$STMP"
}
trap cleanup EXIT

echo "== bench: go test -bench 'OSDPOSParallel|DPOSThroughput|WarmstartRecompute' -count=5 -benchmem"
go test -run '^$' -bench 'BenchmarkOSDPOSParallel|BenchmarkDPOSThroughput|BenchmarkWarmstartRecompute' \
	-count=5 -benchtime 1x -benchmem . | tee "$RAW"

# Keep the minimum per benchmark and metric: least-noise estimate of true
# cost. Alloc stats are paired with their time entry under ":B/op" and
# ":allocs/op" key suffixes so the flat-key gate below stays trivial.
awk -v k1="$KEY" -v k8="$KEY8" -v wc="$KEYWC" -v ws="$KEYWS" \
	-v sc="$KEYSC" -v ss="$KEYSS" -v ncpu="$NCPU" '
/^Benchmark/ && $4 == "ns/op" {
	name = $1
	sub(/-[0-9]+$/, "", name)  # strip -GOMAXPROCS suffix
	for (i = 3; i < NF; i += 2) {
		unit = $(i + 1)
		key = ""
		if (unit == "ns/op") key = name
		else if (unit == "B/op") key = name ":B/op"
		else if (unit == "allocs/op") key = name ":allocs/op"
		if (key == "") continue
		if (!(key in best) || $i + 0 < best[key]) best[key] = $i + 0
	}
}
END {
	n = 0
	for (key in best) order[n++] = key
	# deterministic output: simple insertion sort by key
	for (i = 1; i < n; i++) {
		v = order[i]
		for (j = i - 1; j >= 0 && order[j] > v; j--) order[j+1] = order[j]
		order[j+1] = v
	}
	printf "{\n"
	for (i = 0; i < n; i++)
		printf "  \"%s\": %d,\n", order[i], best[order[i]]
	eff = 0
	if ((k1 in best) && (k8 in best) && best[k8] > 0)
		eff = (best[k1] / best[k8]) / 8
	wrs = 0
	if ((wc in best) && (ws in best) && best[ws] > 0)
		wrs = best[wc] / best[ws]
	wss = 0
	if ((sc in best) && (ss in best) && best[ss] > 0)
		wss = best[sc] / best[ss]
	printf "  \"ncpu\": %d,\n", ncpu
	printf "  \"warmstart_recompute_speedup\": %.4f,\n", wrs
	printf "  \"warmstart_shrink_speedup\": %.4f,\n", wss
	printf "  \"parallel_efficiency_8w\": %.4f\n", eff
	printf "}\n"
}' "$RAW" >"$OUT"
echo "== wrote $OUT"

# jget FILE KEY -> value, empty when absent.
jget() {
	awk -v key="\"$2\":" '$1 == key {gsub(/,/, "", $2); print $2}' "$1"
}

cur=$(jget "$OUT" "$KEY")
if [ -z "$cur" ]; then
	echo "bench.sh: headline benchmark $KEY missing from results" >&2
	exit 1
fi

# Serve throughput: warmed cache, fingerprint-only requests (see header
# gates 5 and 6). 8 workers per core keeps queueing delay — not service
# capacity — from dominating the tail on small machines.
echo "== bench: fastt serve warm-cache throughput (loadgen, 3s)"
go build -o "$STMP/fastt" ./cmd/fastt
go build -o "$STMP/loadgen" ./cmd/loadgen
"$STMP/fastt" serve -addr 127.0.0.1:0 >"$STMP/serve.log" 2>&1 &
SERVE_PID=$!
saddr=""
for _ in $(seq 1 50); do
	saddr="$(sed -n 's/^fastt serve: listening on //p' "$STMP/serve.log")"
	[ -n "$saddr" ] && break
	sleep 0.1
done
if [ -z "$saddr" ]; then
	echo "bench.sh: fastt serve failed to start:" >&2
	cat "$STMP/serve.log" >&2
	exit 1
fi
"$STMP/loadgen" -addr "http://$saddr" -mode bench -duration 3s -out "$SERVE_OUT"
kill "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
SERVE_PID=""
echo "== wrote $SERVE_OUT"

if [ "${1:-}" = "--update" ]; then
	# Keep alloc entries only for the deterministic sequential paths (see
	# header note on gate 2). Warmstart entries are gated by their derived
	# ratios (gate 4a), not by per-run alloc minima.
	awk '(!(/workers=[0-9]+/ && /(B\/op|allocs\/op)/) || /workers=1[^0-9]/) &&
		!(/Warmstart/ && /(B\/op|allocs\/op)/)' \
		"$OUT" >"$BASELINE"
	cp "$SERVE_OUT" "$SERVE_BASELINE"
	echo "== baseline updated: $KEY = $cur ns/op; serve baseline refreshed"
	exit 0
fi

base=$(jget "$BASELINE" "$KEY")
if [ -z "$base" ]; then
	echo "bench.sh: $KEY missing from $BASELINE (run scripts/bench.sh --update)" >&2
	exit 1
fi

fail=0

# Gate 1: headline time regression. Fail when cur > base * 1.10.
if [ "$cur" -gt $((base + base / 10)) ]; then
	echo "FAIL: $KEY regressed: $cur ns/op vs baseline $base ns/op (>10%)" >&2
	fail=1
else
	echo "OK: $KEY = $cur ns/op (baseline $base ns/op)"
fi

# Gate 2: allocation regressions, for every benchmark the baseline has
# alloc entries for. Fail when cur > base * 1.10.
for suffix in ":B/op" ":allocs/op"; do
	awk -v sfx="$suffix" 'index($1, "\"Benchmark") == 1 && index($1, sfx) {
		key = $1; gsub(/^"|":$/, "", key); print key
	}' "$BASELINE" | while IFS= read -r akey; do
		ab=$(jget "$BASELINE" "$akey")
		ac=$(jget "$OUT" "$akey")
		if [ -z "$ac" ]; then
			echo "FAIL: $akey missing from results" >&2
			exit 1
		fi
		if [ "$ac" -gt $((ab + ab / 10)) ]; then
			echo "FAIL: $akey regressed: $ac vs baseline $ab (>10%)" >&2
			exit 1
		fi
	done || fail=1
done
[ "$fail" -eq 1 ] || echo "OK: allocation stats within 10% of baseline"

# Gate 3: DPOS throughput must not regress more than 10% (see header).
tpb=$(jget "$BASELINE" "$KEYTP")
tpc=$(jget "$OUT" "$KEYTP")
if [ -n "$tpb" ] && [ -n "$tpc" ]; then
	if [ "$tpc" -gt $((tpb + tpb / 10)) ]; then
		echo "FAIL: $KEYTP regressed: $tpc ns/op vs baseline $tpb ns/op (>10%)" >&2
		fail=1
	else
		echo "OK: $KEYTP = $tpc ns/op (baseline $tpb ns/op)"
	fi
fi

# Gate 4a: warm-start ratios (see header). Absolute thresholds, no
# baseline entries needed: the same-cluster recompute must reach the
# 1.5x target, the shrink recompute must not fall below the 0.80x
# non-regression floor.
wrs=$(jget "$OUT" "warmstart_recompute_speedup")
wss=$(jget "$OUT" "warmstart_shrink_speedup")
if [ -z "$wrs" ] || [ -z "$wss" ]; then
	echo "FAIL: warmstart speedups missing from results" >&2
	fail=1
else
	if awk -v s="$wrs" 'BEGIN { exit !(s + 0 >= 1.5) }'; then
		echo "OK: warmstart_recompute_speedup = ${wrs}x (target >= 1.5x)"
	else
		echo "FAIL: warmstart_recompute_speedup = ${wrs}x below 1.5x target" >&2
		fail=1
	fi
	if awk -v s="$wss" 'BEGIN { exit !(s + 0 >= 0.80) }'; then
		echo "OK: warmstart_shrink_speedup = ${wss}x (floor >= 0.80x)"
	else
		echo "FAIL: warmstart_shrink_speedup = ${wss}x below 0.80x floor" >&2
		fail=1
	fi
fi

# Gate 4: core-scaled parallel efficiency of the 8-worker Transformer
# search (see header): eff >= 0.5 * min(ncpu, 8) / 8, plus no >20%
# regression against the recorded baseline efficiency.
eff=$(jget "$OUT" "parallel_efficiency_8w")
if [ -z "$eff" ]; then
	echo "FAIL: parallel_efficiency_8w missing from results" >&2
	fail=1
else
	target=$(awk -v n="$NCPU" 'BEGIN { if (n > 8) n = 8; printf "%.4f", 0.5 * n / 8 }')
	if awk -v e="$eff" -v t="$target" 'BEGIN { exit !(e + 0 >= t + 0) }'; then
		echo "OK: parallel_efficiency_8w = $eff (target >= $target on $NCPU cores)"
	else
		echo "FAIL: parallel_efficiency_8w = $eff below core-scaled target $target ($NCPU cores)" >&2
		fail=1
	fi
	beff=$(jget "$BASELINE" "parallel_efficiency_8w")
	bncpu=$(jget "$BASELINE" "ncpu")
	if [ -n "$beff" ] && [ "${bncpu:-$NCPU}" = "$NCPU" ]; then
		if awk -v e="$eff" -v b="$beff" 'BEGIN { exit !(e + 0 >= 0.8 * b) }'; then
			echo "OK: parallel_efficiency_8w within 20% of baseline $beff"
		else
			echo "FAIL: parallel_efficiency_8w = $eff regressed >20% below baseline $beff" >&2
			fail=1
		fi
	elif [ -n "$beff" ]; then
		echo "note: baseline efficiency $beff was recorded on ${bncpu:-?} cores, this host has $NCPU; skipping the regression check"
	fi
fi

# Gate 5: absolute serve floor — >= 10,000 req/s, p99 < 5ms (see header).
# Values are floats, so comparisons go through awk.
rps=$(jget "$SERVE_OUT" "req_per_sec")
p99=$(jget "$SERVE_OUT" "p99_ns")
srverr=$(jget "$SERVE_OUT" "errors")
if [ -z "$rps" ] || [ -z "$p99" ]; then
	echo "FAIL: req_per_sec/p99_ns missing from $SERVE_OUT" >&2
	fail=1
else
	if awk -v r="$rps" -v p="$p99" -v e="${srverr:-0}" \
		'BEGIN { exit !(r + 0 >= 10000 && p + 0 < 5000000 && e + 0 == 0) }'; then
		echo "OK: serve sustained $rps req/s, p99 ${p99}ns, errors ${srverr:-0}"
	else
		echo "FAIL: serve floor not met: $rps req/s (need >= 10000), p99 ${p99}ns (need < 5000000), errors ${srverr:-0} (need 0)" >&2
		fail=1
	fi
fi

# Gate 6: serve regression vs the recorded baseline, same-core-count hosts
# only. A missing baseline is record-only mode, not a failure.
if [ ! -f "$SERVE_BASELINE" ]; then
	echo "note: $SERVE_BASELINE missing; recorded $SERVE_OUT only (run scripts/bench.sh --update to set the baseline)"
else
	brps=$(jget "$SERVE_BASELINE" "req_per_sec")
	bp99=$(jget "$SERVE_BASELINE" "p99_ns")
	bscpu=$(jget "$SERVE_BASELINE" "ncpu")
	if [ "${bscpu:-$NCPU}" != "$NCPU" ]; then
		echo "note: serve baseline was recorded on ${bscpu:-?} cores, this host has $NCPU; skipping the regression check"
	elif [ -n "$rps" ] && [ -n "$brps" ] && [ -n "$bp99" ]; then
		# Single 3s windows are noisy even after loadgen's warmup phase, so
		# the baseline bands are deliberately loose (1/3 req/s, 2x p99);
		# gate 5's absolute floor is the binding constraint.
		if awk -v r="$rps" -v b="$brps" 'BEGIN { exit !(r + 0 >= 0.67 * b) }'; then
			echo "OK: serve req/s within 33% of baseline $brps"
		else
			echo "FAIL: serve req/s $rps dropped >33% below baseline $brps" >&2
			fail=1
		fi
		if awk -v p="$p99" -v b="$bp99" 'BEGIN { exit !(p + 0 <= 2 * b) }'; then
			echo "OK: serve p99 within 2x of baseline ${bp99}ns"
		else
			echo "FAIL: serve p99 ${p99}ns rose >2x above baseline ${bp99}ns" >&2
			fail=1
		fi
	fi
fi

exit "$fail"
