#!/bin/sh
# bench.sh — benchmark gate (see EXPERIMENTS.md).
#
# Builds the root package's test binary once and runs three benchmark
# passes over it:
#
#   times:  BenchmarkOSDPOSParallel, BenchmarkDPOSThroughput and
#           BenchmarkWarmstartRecompute, -count 5, one iteration each; the
#           best (minimum) ns/op per benchmark is kept.
#   allocs: the benchmarks that carry alloc baselines — the workers=1
#           OS-DPOS searches and DPOSThroughput — at -cpu 1 -count 10; the
#           median B/op and allocs/op are kept. At GOMAXPROCS > 1 these
#           single-iteration numbers are bimodal (a benchmark goroutine that
#           changes P misses the per-P sync.Pool slots, so Transformer
#           workers=1 ranges 2.2–21.7 MB and DPOSThroughput splits between
#           1.09 and 2.26 MB); at -cpu 1 the modal value dominates and the
#           median is stable run to run.
#   serve:  BenchmarkServeWarmHit, -benchtime 3s -count 5; the median req/s
#           and p99-ns are kept.
#
# The kept numbers, plus the derived ratios below and the host's core count
# ("ncpu"), are written to BENCH_osdpos.json and gated against the
# checked-in baseline scripts/bench_baseline.json:
#
#   1. the headline configuration — Transformer, 8 GPUs, workers=1, the
#      single-threaded incremental candidate search — must not regress
#      more than 10% in time;
#   2. no benchmark with baseline allocation entries may regress more than
#      10% in median B/op or allocs/op. Only the deterministic sequential
#      paths carry alloc entries: with workers > 1, the live shared pruning
#      bound races — which candidates abort, and how far each gets before
#      it does, depends on completion timing — so the allocated amount
#      varies run to run;
#   3. DPOSThroughput must not regress more than 10% against the recorded
#      baseline;
#   4a. warm-start ratios, derived from BenchmarkWarmstartRecompute
#      (Transformer@8GPU, workers=1, cold vs Options.Seed):
#      warmstart_recompute_speedup — same-cluster recompute, where the
#      seed wins and the walk stops after one round — must reach >= 1.5x;
#      and warmstart_shrink_speedup — recompute on 7 survivors, where a
#      candidate beats the seed in round one so the seeded walk is
#      byte-identical to the cold one from the first commit on — must
#      stay >= 0.80x, a non-regression floor: seeding must never
#      meaningfully slow fault recovery (see EXPERIMENTS.md,
#      "Warm-started recompute");
#   4. parallel_efficiency_8w, (workers=1 time / workers=8 time) / 8 on
#      the Transformer search, must reach the core-scaled target
#      0.5 * min(ncpu, 8) / 8 — >= 0.5 (>= 4x at 8 workers) on any
#      >=8-core machine — and must not drop more than 20% below the
#      recorded baseline efficiency. Worker scaling is physically bounded
#      by the host: a GOMAXPROCS=1 machine runs the 8-worker search on one
#      core, so its best possible efficiency is ~1/8 (see EXPERIMENTS.md,
#      "Parallel search scaling");
#   5. the strategy service's warm path (see DESIGN.md, "Strategy
#      service") must sustain >= 10,000 req/s with p99 < 5 ms and no
#      error — an absolute floor that holds even on one core, because warm
#      requests never search. BenchmarkServeWarmHit fails on any response
#      that is not a 200 cache hit, so a failed serve pass fails this gate;
#   6. serve req/s must not drop more than 33% below the baseline and p99
#      must not rise more than 2x above it (loose bands: gate 5 is the
#      binding floor).
#
# Gate 6 and gate 4's regression check compare against the baseline only
# when it was recorded on a host with the same ncpu; otherwise they print a
# note and skip.
#
# Usage: scripts/bench.sh            run, write BENCH_osdpos.json, gate
#        scripts/bench.sh --update   also rewrite the baseline
set -eu
cd "$(dirname "$0")/.."

KEY="BenchmarkOSDPOSParallel/Transformer/workers=1"
KEY8="BenchmarkOSDPOSParallel/Transformer/workers=8"
KEYTP="BenchmarkDPOSThroughput"
KEYWC="BenchmarkWarmstartRecompute/recompute/cold"
KEYWS="BenchmarkWarmstartRecompute/recompute/seeded"
KEYSC="BenchmarkWarmstartRecompute/shrink/cold"
KEYSS="BenchmarkWarmstartRecompute/shrink/seeded"
KEYRPS="BenchmarkServeWarmHit:req/s"
KEYP99="BenchmarkServeWarmHit:p99-ns"
BASELINE="scripts/bench_baseline.json"
OUT="BENCH_osdpos.json"
NCPU=$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

go test -c -o "$TMP/fastt.test" .

# pass NAME ARGS... runs one benchmark pass into $TMP/NAME.raw and echoes
# it. A failing benchmark fails the pass.
pass() {
	name="$1"
	shift
	echo "== bench ($name): $*"
	if ! "$TMP/fastt.test" -test.run '^$' "$@" >"$TMP/$name.raw" 2>&1; then
		cat "$TMP/$name.raw"
		return 1
	fi
	cat "$TMP/$name.raw"
}

pass times -test.bench 'BenchmarkOSDPOSParallel|BenchmarkDPOSThroughput|BenchmarkWarmstartRecompute' \
	-test.count 5 -test.benchtime 1x
# A -bench pattern splits on top-level "|" first, then on "/" per name level.
pass allocs -test.bench 'BenchmarkOSDPOSParallel/./workers=1$|BenchmarkDPOSThroughput$' \
	-test.cpu 1 -test.count 10 -test.benchtime 1x -test.benchmem
servefail=0
pass serve -test.bench 'BenchmarkServeWarmHit$' -test.count 5 -test.benchtime 3s || servefail=1

# Reduce the three passes to one flat JSON object: minimum ns/op from the
# times pass, median B/op and allocs/op from the allocs pass, median req/s
# and p99-ns from the serve pass. Non-time metrics are keyed
# "<benchmark>:<unit>" so the flat-key gates below stay trivial.
awk -v k1="$KEY" -v k8="$KEY8" -v wc="$KEYWC" -v ws="$KEYWS" \
	-v sc="$KEYSC" -v ss="$KEYSS" -v ncpu="$NCPU" '
FNR == 1 { src = FILENAME; sub(/.*\//, "", src); sub(/\.raw$/, "", src) }
/^Benchmark/ {
	name = $1
	sub(/-[0-9]+$/, "", name)  # strip -GOMAXPROCS suffix
	for (i = 3; i < NF; i += 2) {
		unit = $(i + 1)
		v = $i + 0
		if (src == "times" && unit == "ns/op") {
			if (!(name in best) || v < best[name]) best[name] = v
		} else if ((src == "allocs" && (unit == "B/op" || unit == "allocs/op")) ||
			(src == "serve" && (unit == "req/s" || unit == "p99-ns"))) {
			key = name ":" unit
			vals[key, ++cnt[key]] = v
		}
	}
}
END {
	for (key in cnt) {
		n = cnt[key]
		for (i = 1; i <= n; i++) s[i] = vals[key, i]
		for (i = 2; i <= n; i++) {
			v = s[i]
			for (j = i - 1; j >= 1 && s[j] > v; j--) s[j+1] = s[j]
			s[j+1] = v
		}
		best[key] = (s[int((n + 1) / 2)] + s[int(n / 2) + 1]) / 2
	}
	n = 0
	for (key in best) order[n++] = key
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
}' "$TMP/times.raw" "$TMP/allocs.raw" "$TMP/serve.raw" >"$OUT"
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

if [ "${1:-}" = "--update" ]; then
	if [ "$servefail" -eq 1 ]; then
		echo "bench.sh: serve pass failed; baseline not updated" >&2
		exit 1
	fi
	cp "$OUT" "$BASELINE"
	echo "== baseline updated: $KEY = $cur ns/op"
	exit 0
fi

base=$(jget "$BASELINE" "$KEY")
if [ -z "$base" ]; then
	echo "bench.sh: $KEY missing from $BASELINE (run scripts/bench.sh --update)" >&2
	exit 1
fi
bncpu=$(jget "$BASELINE" "ncpu")
samehost=1
if [ "${bncpu:-$NCPU}" != "$NCPU" ]; then
	samehost=0
	echo "note: $BASELINE was recorded on ${bncpu:-?} cores, this host has $NCPU; skipping gate 6 and gate 4's regression check"
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
allocfail=0
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
	done || allocfail=1
done
if [ "$allocfail" -eq 1 ]; then
	fail=1
else
	echo "OK: median allocation stats within 10% of baseline"
fi

# Gate 3: DPOS throughput must not regress more than 10%.
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

# Gate 4a: warm-start ratios (see header). Absolute thresholds.
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
# search (see header).
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
	if [ -n "$beff" ] && [ "$samehost" -eq 1 ]; then
		if awk -v e="$eff" -v b="$beff" 'BEGIN { exit !(e + 0 >= 0.8 * b) }'; then
			echo "OK: parallel_efficiency_8w within 20% of baseline $beff"
		else
			echo "FAIL: parallel_efficiency_8w = $eff regressed >20% below baseline $beff" >&2
			fail=1
		fi
	fi
fi

# Gate 5: absolute serve floor — >= 10,000 req/s, p99 < 5 ms, no error.
rps=$(jget "$OUT" "$KEYRPS")
p99=$(jget "$OUT" "$KEYP99")
if [ "$servefail" -eq 1 ]; then
	echo "FAIL: BenchmarkServeWarmHit failed (a non-200 or non-hit response; output above)" >&2
	fail=1
elif [ -z "$rps" ] || [ -z "$p99" ]; then
	echo "FAIL: $KEYRPS / $KEYP99 missing from results" >&2
	fail=1
elif awk -v r="$rps" -v p="$p99" 'BEGIN { exit !(r + 0 >= 10000 && p + 0 < 5000000) }'; then
	echo "OK: serve sustained $rps req/s, p99 ${p99}ns, 0 errors (median of 5)"
else
	echo "FAIL: serve floor not met: $rps req/s (need >= 10000), p99 ${p99}ns (need < 5000000)" >&2
	fail=1
fi

# Gate 6: serve regression bands against the baseline.
brps=$(jget "$BASELINE" "$KEYRPS")
bp99=$(jget "$BASELINE" "$KEYP99")
if [ -z "$brps" ] || [ -z "$bp99" ]; then
	echo "note: $BASELINE has no serve entries; skipping gate 6 (run scripts/bench.sh --update)"
elif [ "$samehost" -eq 1 ] && [ -n "$rps" ] && [ -n "$p99" ]; then
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

exit "$fail"
