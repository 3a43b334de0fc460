package bench

import (
	"testing"

	"persistmem/internal/ods"
	"persistmem/internal/sim"
)

// crossShardDetScale is a short arrival window: determinism with a
// two-phase mix needs the same grid at every parallelism, not the smoke
// scale's statistics.
var crossShardDetScale = SatScale{Name: "det", Window: 150 * sim.Millisecond}

// withDetAxes narrows the sweep's package-level axes to a grid that
// still crosses every protocol path — all three durabilities, a
// multi-shard store, both two-phase mix extremes, a multi-stream audit
// fan-out — but runs in seconds under the race detector. Restored on
// cleanup; bench tests never run in parallel.
func withDetAxes(t *testing.T) {
	t.Helper()
	durs, mults := satKneeDurabilities, satMultipliers
	shards, vols := satShardCounts, satVolumeCounts
	pcts, streams := satXShardPcts, satStreamCounts
	t.Cleanup(func() {
		satKneeDurabilities, satMultipliers = durs, mults
		satShardCounts, satVolumeCounts = shards, vols
		satXShardPcts, satStreamCounts = pcts, streams
	})
	satKneeDurabilities = []ods.Durability{ods.DiskDurability, ods.PMDurability, ods.PMDirectDurability}
	satMultipliers = []float64{0.9, 2.2}
	satShardCounts = []int{4}
	satVolumeCounts = []int{2}
	satXShardPcts = []float64{50, 100}
	satStreamCounts = []int{8}
}

// TestCrossShardEngineDifferential: the saturation sweep with a 50%
// cross-shard two-phase mix in every standard cell prints byte-identical
// CSV at parallelism 1 and 8 — the same contract the committed
// saturation_full.csv rides on, extended to the outcome-record protocol
// path.
func TestCrossShardEngineDifferential(t *testing.T) {
	withDetAxes(t)
	ref := Runner{Parallelism: 1, CrossShardPct: 50}.Saturation(1, crossShardDetScale)
	refCSV := ref.CSV()
	var crossed int64
	for _, row := range ref.Knee {
		for _, p := range row {
			crossed += p.CrossCommits
		}
	}
	if crossed == 0 {
		t.Fatal("50% mix produced no two-phase commits in the knee sweep — the differential is vacuous")
	}
	if got := (Runner{Parallelism: 8, CrossShardPct: 50}).Saturation(1, crossShardDetScale).CSV(); got != refCSV {
		t.Error("parallelism 8 diverged from the sequential cross-shard reference")
	}
}
