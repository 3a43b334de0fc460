#!/bin/sh
# check.sh — the repository's pre-commit gate: build, vet, simlint (the
# determinism & hot-path suite in cmd/simlint), the full test suite, and
# the race detector over every package.
#
# govulncheck runs when installed (CI installs it; it is optional locally
# so the gate works offline).
set -eux

cd "$(dirname "$0")/.."

go build ./...
go vet ./...
# simlint (determinism, hot-path and box-lifecycle suite).
# The committed baseline is empty: the tree carries zero findings, only
# reviewed //simlint:allow suppressions. The JSON report is left behind on
# failure so CI can upload it as an artifact.
go run ./cmd/simlint -json ./... > simlint.json || true
echo '[]' | diff - simlint.json
rm -f simlint.json
# The main test pass doubles as the coverage gate: covcheck fails when
# any package drops below its committed per-package floor (COVERAGE.json;
# re-baseline deliberately with `go run ./cmd/covcheck -update`).
go test -coverprofile=/tmp/persistmem-cover.out ./...
go run ./cmd/covcheck -profile /tmp/persistmem-cover.out
rm -f /tmp/persistmem-cover.out
# The bench package's sweep differentials run ~9 minutes under the race
# detector on one core; give the race pass explicit headroom over the
# 10-minute per-package default.
go test -race -timeout 20m ./...

# Kernel perf gate: re-measure scheduler ns/event and data-plane
# allocs/txn and fail on >20% regression against the committed baseline.
go run ./cmd/simbench -compare BENCH_kernel.json

# Fault-injection smoke matrix: every (durability x fault x phase) cell
# must pass its invariants — the history-based atomicity/serializability
# checker runs inside every cell, and the -violations artifact must come
# out empty — and the whole sweep must be deterministic: two same-seed
# runs (default pool and sequential) print byte-identical tables. The
# cell-count grep pins the matrix size so the cross-shard cells
# (coordinator/participant kills inside the prepare, in-doubt,
# post-outcome and apply windows) cannot silently drop out.
go run ./cmd/faults -txns 8 -chaos 1 -violations /tmp/faults-viol.txt > /tmp/faults-a.txt
test ! -s /tmp/faults-viol.txt
grep -q '64/64 cells passed' /tmp/faults-a.txt
grep -c 'xs-coord' /tmp/faults-a.txt | grep -qx 9
grep -c 'xs-part' /tmp/faults-a.txt | grep -qx 6
go run ./cmd/faults -txns 8 -chaos 1 -parallel 1 > /tmp/faults-b.txt
cmp /tmp/faults-a.txt /tmp/faults-b.txt
rm -f /tmp/faults-a.txt /tmp/faults-b.txt /tmp/faults-viol.txt

# Figure-artifact staleness gate: regenerate every table at quick scale
# and compare its format skeleton (numbers, durations and the scale name
# masked out) against the committed full-scale summary. A mismatch means
# a table changed shape since figures_full.txt was generated — rerun
# cmd/figures at -scale full and commit the refreshed artifacts.
go run ./cmd/figures -fig all -scale quick -seed 1 > /tmp/figures-quick.txt
skel() {
	sed -E -e 's/scale=[a-z]+/scale=S/' -e 's/[0-9]+(\.[0-9]+)?(ns|us|µs|ms|m?s)?/N/g' \
		-e 's/  +/ /g' -e 's/ +$//' "$1"
}
skel figures_full.txt > /tmp/figures-skel-full.txt
skel /tmp/figures-quick.txt > /tmp/figures-skel-quick.txt
cmp /tmp/figures-skel-full.txt /tmp/figures-skel-quick.txt
rm -f /tmp/figures-quick.txt /tmp/figures-skel-full.txt /tmp/figures-skel-quick.txt

# Open-loop saturation sweep: the smoke-scale sweep must pass its shape
# checks (knee present per durability, p99 strictly rising past it,
# monotone shard/volume scaling) and print byte-identical CSV at any
# parallelism — the same determinism contract the committed
# saturation_full.csv was generated under. The summary-table skeleton
# doubles as the staleness gate for the committed full-scale artifact,
# like the figure tables above.
go run ./cmd/loadgen -scale smoke -seed 1 -check -csv > /tmp/sat-a.csv
go run ./cmd/loadgen -scale smoke -seed 1 -csv -parallel 1 > /tmp/sat-b.csv
cmp /tmp/sat-a.csv /tmp/sat-b.csv
rm -f /tmp/sat-a.csv /tmp/sat-b.csv
# The same determinism contract with a cross-shard two-phase mix in
# every cell: byte-identical CSV at -parallel 1/8.
go run ./cmd/loadgen -scale smoke -seed 1 -csv -cross-shard-pct 50 -parallel 1 > /tmp/sat-x1.csv
go run ./cmd/loadgen -scale smoke -seed 1 -csv -cross-shard-pct 50 -parallel 8 > /tmp/sat-x2.csv
cmp /tmp/sat-x1.csv /tmp/sat-x2.csv
rm -f /tmp/sat-x1.csv /tmp/sat-x2.csv
go run ./cmd/loadgen -scale smoke -seed 1 > /tmp/sat-smoke.txt
skel saturation_full.txt > /tmp/sat-skel-full.txt
skel /tmp/sat-smoke.txt > /tmp/sat-skel-smoke.txt
cmp /tmp/sat-skel-full.txt /tmp/sat-skel-smoke.txt
rm -f /tmp/sat-smoke.txt /tmp/sat-skel-full.txt /tmp/sat-skel-smoke.txt

if command -v govulncheck >/dev/null 2>&1; then
	govulncheck ./...
fi
