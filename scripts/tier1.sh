#!/bin/sh
# tier1.sh — the repository's tier-1 verification gate (see ROADMAP.md).
# Build, formatting, vet, the full test suite, a race-detector pass over
# the single-owner signature memory, real concurrency (the parallel engine
# mode, the sharded analysis pipeline, replay producer staging), blocking
# queues (the detect queue reproductions), merge-order algebra (comm), the
# static-coalescing differential wall (passes) and the observability
# primitives (obs timelines, tracers, histograms), the probe shim's
# streaming spills (per-goroutine batches merged under the global lock)
# plus a facade-level race
# pass scraping /metrics and /progress during a live sharded run and
# running every Parallel entry path (no two goroutines share a signature)
# and the entry-path table's Parallel rows plus crafted out-of-range trace
# accesses,
# plus a short fuzz smoke over the trace codec, the source instrumenter and the
# coalescing pass, and an instrument+vet check of every example program
# under testdata/ via the commtrace driver.
set -eu

cd "$(dirname "$0")/.."

echo "== go build =="
go build ./...

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go test =="
go test ./...

echo "== go test -race (sig, exec, pipeline, detect, redundancy, accuracy, trace, comm, patterns, metrics, instrument, passes, obs, probe) =="
go test -race ./internal/sig/... ./internal/exec/... ./internal/pipeline/... ./internal/detect/... \
	./internal/redundancy/... ./internal/accuracy/... ./internal/trace/... ./internal/comm/... \
	./internal/patterns/... ./internal/metrics/... ./internal/instrument/... ./internal/passes/... \
	./internal/obs/... ./probe

echo "== go test -race (facade timeline + live concurrent scrape + Parallel entry paths) =="
go test -race -run 'TestTimeline|TestTelemetryConcurrentScrape|TestReportOverheadAttribution|TestProgressStageLatencies|TestProfileParallelMode|TestParallelDeterministicTotalInvariance|TestParallelEntryPathsPopulateSingleOwnerLayers' .

echo "== go test -race (entry-path table Parallel rows + crafted trace accesses) =="
go test -race -run 'TestEntryPathConfigTable/parallel/|TestCraftedAccessesFailTyped' .

echo "== commtrace -mode check (instrument + vet every example program) =="
for pkg in workerpool chanpipe striped; do
	go run ./cmd/commtrace -mode check -pkg "./testdata/$pkg"
done

echo "== go test -fuzz smoke (trace codec, instrumenter, coalescing pass) =="
for target in FuzzDecode FuzzDecoder FuzzStreamRoundTrip FuzzV3RoundTrip FuzzV3Decoder; do
	go test -run '^$' -fuzz "^${target}\$" -fuzztime 5s ./internal/trace
done
go test -run '^$' -fuzz '^FuzzInstrument$' -fuzztime 5s ./internal/instrument
go test -run '^$' -fuzz '^FuzzCoalesce$' -fuzztime 5s ./internal/passes

echo "tier1: OK"
