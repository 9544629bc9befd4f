#!/bin/sh
# check.sh — the repo's verification tiers (see ROADMAP.md).
#
#   tier 1: gofmt gate + build + full test suite + a 1-iteration bench
#           smoke (DPOSThroughput and ServeWarmHit) so the bench harness
#           itself cannot silently rot between opt-in bench runs (no timing gate — it only has to run) + vet
#           and tests of the perfbench module, which builds against the
#           internal packages and would otherwise break unnoticed
#   tier 2: vet + race detector over the short suite (the parallel strategy
#           calculator and the cost-model snapshots must hold under -race)
#   smoke:  CLI strategy-artifact round trip — `fastt compute` writes an
#           artifact, `fastt -strategy` reloads and executes it, and the two
#           canonical artifact-exec lines must match byte for byte — plus the
#           elastic loop: examples/elastic must lose a device, accept a
#           joiner, recompute, and resume
#   serve:  strategy-service daemon smoke — start `fastt serve` on an
#           ephemeral port, expect `ok` from /healthz and 404 for an uncached
#           fingerprint-only POST, then SIGTERM it: it must print "shutting
#           down" and exit 0. (Cold/warm byte identity and the coalesced
#           herd are internal/serve tests; the warm-path floor is
#           BenchmarkServeWarmHit, gated by scripts/bench.sh.)
#   fuzz:   10s fuzz smoke per decoder (strategy/graph/cost/cluster-spec
#           JSON) on top of replaying the committed corpora under
#           testdata/fuzz/
#   gap:    optimality-gap smoke — `benchtab -what gap` on two small models
#           must emit a Theorem-1 "ok" verdict for every row, and two runs
#           must be byte-identical (the bound solver and the gap table are
#           deterministic by construction)
#   cover:  coverage gate — total statement coverage of ./internal/... must
#           not drop below scripts/coverage_baseline.txt
#   bench:  opt-in perf gate — scripts/bench.sh, fails on >10% regression of
#           the OS-DPOS headline benchmark vs scripts/bench_baseline.json
#
# Usage: scripts/check.sh [1|2|smoke|serve|fuzz|gap|cover|bench]
#        (no argument = 1, 2, smoke, serve, fuzz, gap and cover)
set -eu
cd "$(dirname "$0")/.."

tier="${1:-all}"

# One cleanup for every tier: temp dirs accumulate in CLEAN_DIRS, a live
# serve daemon's pid in SERVE_PID.
CLEAN_DIRS=""
SERVE_PID=""
cleanup() {
	if [ -n "$SERVE_PID" ]; then
		kill "$SERVE_PID" 2>/dev/null || true
	fi
	if [ -n "$CLEAN_DIRS" ]; then
		# shellcheck disable=SC2086 # word splitting is the point
		rm -rf $CLEAN_DIRS
	fi
}
trap cleanup EXIT

if [ "$tier" = "1" ] || [ "$tier" = "all" ]; then
	echo "== tier 1: gofmt -l . && go build ./... && go test ./..."
	unformatted="$(gofmt -l .)"
	if [ -n "$unformatted" ]; then
		echo "gofmt needed on:" >&2
		echo "$unformatted" >&2
		exit 1
	fi
	go build ./...
	go test ./...
	echo "== tier 1: bench smoke (BenchmarkDPOSThroughput, BenchmarkServeWarmHit; 1 iteration)"
	go test -run '^$' -bench 'BenchmarkDPOSThroughput|BenchmarkServeWarmHit' -benchtime 1x .
	echo "== tier 1: perfbench module (go vet + go test)"
	go -C perfbench vet . && go -C perfbench test .
fi

if [ "$tier" = "2" ] || [ "$tier" = "all" ]; then
	echo "== tier 2: go vet ./... && go test -race -short ./..."
	go vet ./...
	go test -race -short ./...
fi

if [ "$tier" = "smoke" ] || [ "$tier" = "all" ]; then
	echo "== smoke: fastt compute -> fastt -strategy round trip"
	tmp="$(mktemp -d)"
	CLEAN_DIRS="$CLEAN_DIRS $tmp"
	go build -o "$tmp/fastt" ./cmd/fastt
	"$tmp/fastt" compute -model MLP -gpus 2 -out "$tmp/s.json" -seed 7 -iters 2 | tee "$tmp/compute.out"
	"$tmp/fastt" -model MLP -gpus 2 -strategy "$tmp/s.json" -seed 7 -iters 2 | tee "$tmp/deploy.out"
	grep '^artifact-exec:' "$tmp/compute.out" > "$tmp/compute.line"
	grep '^artifact-exec:' "$tmp/deploy.out" > "$tmp/deploy.line"
	if ! cmp -s "$tmp/compute.line" "$tmp/deploy.line"; then
		echo "strategy artifact did not replay identically:" >&2
		cat "$tmp/compute.line" "$tmp/deploy.line" >&2
		exit 1
	fi
	echo "== smoke: warm-started recompute (compute -> shrink cluster -> compute -seed-strategy)"
	# The recovery shape end to end: a 4-GPU strategy seeds the recompute of
	# the same 4-replica graph on a 3-GPU cluster (-replicas pins the graph
	# so the fingerprints match). The seeded run must report a nonzero seed
	# bound and at least one seeded round; runCompute itself reloads,
	# validates and executes the written artifact before exiting 0.
	"$tmp/fastt" compute -model MLP -gpus 4 -out "$tmp/warm_seed.json" -seed 7 -iters 2 > "$tmp/warm_cold.out"
	"$tmp/fastt" compute -model MLP -gpus 3 -replicas 4 -seed-strategy "$tmp/warm_seed.json" \
		-out "$tmp/warm_re.json" -seed 7 -iters 2 | tee "$tmp/warm.out"
	if ! grep -q '^warm start' "$tmp/warm.out"; then
		echo "seeded compute did not report a warm start:" >&2
		cat "$tmp/warm.out" >&2
		exit 1
	fi
	if grep -q 'seed bound 0s' "$tmp/warm.out" || grep -q 'seeded 0 round' "$tmp/warm.out"; then
		echo "seeded compute reported an empty warm start:" >&2
		grep '^warm start' "$tmp/warm.out" >&2
		exit 1
	fi
	echo "== smoke: elastic loop (device loss -> join -> recompute -> resume)"
	go run ./examples/elastic > "$tmp/elastic.out"
	for want in 'degraded   : 3 survivor' 'joined     : ' 'recomputed : true' 'resumed    : '; do
		if ! grep -qF "$want" "$tmp/elastic.out"; then
			echo "elastic example output missing \"$want\":" >&2
			cat "$tmp/elastic.out" >&2
			exit 1
		fi
	done
fi

if [ "$tier" = "serve" ] || [ "$tier" = "all" ]; then
	echo "== serve: fastt serve daemon smoke (healthz, uncached 404, SIGTERM)"
	stmp="$(mktemp -d)"
	CLEAN_DIRS="$CLEAN_DIRS $stmp"
	go build -o "$stmp/fastt" ./cmd/fastt
	"$stmp/fastt" serve -addr 127.0.0.1:0 >"$stmp/serve.log" 2>&1 &
	SERVE_PID=$!
	addr=""
	for _ in $(seq 1 50); do
		addr="$(sed -n 's/^fastt serve: listening on //p' "$stmp/serve.log")"
		[ -n "$addr" ] && break
		sleep 0.1
	done
	if [ -z "$addr" ]; then
		echo "fastt serve failed to start:" >&2
		cat "$stmp/serve.log" >&2
		exit 1
	fi
	health="$(curl -fsS "http://$addr/healthz")"
	if [ "$health" != "ok" ]; then
		echo "/healthz answered \"$health\", want ok" >&2
		exit 1
	fi
	status="$(curl -sS -o "$stmp/miss.json" -w '%{http_code}' \
		-H 'Content-Type: application/json' \
		-d '{"cluster":{"servers":1,"gpusPerServer":2},"graphFingerprint":"ffff"}' \
		"http://$addr/v1/compute")"
	if [ "$status" != 404 ]; then
		echo "uncached fingerprint-only POST answered $status, want 404:" >&2
		cat "$stmp/miss.json" >&2
		exit 1
	fi
	kill -TERM "$SERVE_PID"
	code=0
	wait "$SERVE_PID" || code=$?
	SERVE_PID=""
	if [ "$code" -ne 0 ] || ! grep -q '^fastt serve: shutting down$' "$stmp/serve.log"; then
		echo "fastt serve did not shut down cleanly on SIGTERM (exit $code):" >&2
		cat "$stmp/serve.log" >&2
		exit 1
	fi
	echo "serve smoke ok ($addr)"
fi

if [ "$tier" = "fuzz" ] || [ "$tier" = "all" ]; then
	echo "== fuzz: 10s smoke per JSON decoder"
	go test ./internal/strategy/ -fuzz '^FuzzReadJSON$' -fuzztime 10s
	go test ./internal/graph/ -fuzz '^FuzzReadJSON$' -fuzztime 10s
	go test ./internal/cost/ -fuzz '^FuzzModelReadJSON$' -fuzztime 10s
	go test ./internal/device/ -fuzz '^FuzzReadSpec$' -fuzztime 10s
fi

if [ "$tier" = "gap" ] || [ "$tier" = "all" ]; then
	echo "== gap: benchtab -what gap smoke (LeNet, AlexNet) + determinism"
	gtmp="$(mktemp -d)"
	CLEAN_DIRS="$CLEAN_DIRS $gtmp"
	go build -o "$gtmp/benchtab" ./cmd/benchtab
	"$gtmp/benchtab" -what gap -models LeNet,AlexNet | tee "$gtmp/gap1.out"
	# 2 models x {2,4,8} GPUs: every row must close with the Theorem-1 "ok".
	okrows="$(grep -c ' ok$' "$gtmp/gap1.out" || true)"
	if [ "$okrows" != 6 ]; then
		echo "expected 6 Theorem-1 'ok' rows, got $okrows:" >&2
		cat "$gtmp/gap1.out" >&2
		exit 1
	fi
	if grep -q 'VIOLATED' "$gtmp/gap1.out"; then
		echo "gap table reports a Theorem-1 violation:" >&2
		cat "$gtmp/gap1.out" >&2
		exit 1
	fi
	"$gtmp/benchtab" -what gap -models LeNet,AlexNet > "$gtmp/gap2.out"
	# Strip the trailing "(generated in ...)" wall-time line — the only
	# intentionally varying output — and the rest must match byte for byte.
	grep -v '^(generated in ' "$gtmp/gap1.out" > "$gtmp/gap1.cmp"
	grep -v '^(generated in ' "$gtmp/gap2.out" > "$gtmp/gap2.cmp"
	if ! cmp -s "$gtmp/gap1.cmp" "$gtmp/gap2.cmp"; then
		echo "gap table not deterministic across reruns:" >&2
		diff "$gtmp/gap1.cmp" "$gtmp/gap2.cmp" >&2 || true
		exit 1
	fi
fi

if [ "$tier" = "cover" ] || [ "$tier" = "all" ]; then
	echo "== cover: total ./internal/... coverage vs scripts/coverage_baseline.txt"
	covtmp="$(mktemp -d)"
	go test -coverprofile="$covtmp/cover.out" ./internal/... > /dev/null
	total="$(go tool cover -func="$covtmp/cover.out" | awk 'END { sub(/%/, "", $NF); print $NF }')"
	baseline="$(cat scripts/coverage_baseline.txt)"
	rm -rf "$covtmp"
	echo "total coverage: ${total}% (baseline ${baseline}%)"
	if awk -v t="$total" -v b="$baseline" 'BEGIN { exit !(t < b) }'; then
		echo "coverage dropped below baseline" >&2
		exit 1
	fi
fi

# Benchmarks are noisy on shared machines, so the perf gate never runs by
# default; opt in with `scripts/check.sh bench`.
if [ "$tier" = "bench" ]; then
	sh scripts/bench.sh
fi

echo "OK"
