package main

import (
	"testing"
	"time"

	"persistmem/internal/btree"
)

func TestPackageOfChargesDeepestSimulatorFrame(t *testing.T) {
	cases := []struct {
		stack []string // leaf first
		want  string
	}{
		{[]string{"runtime.mallocgc", "runtime.newobject", "persistmem/internal/tmf.(*TMF).coordinate",
			"persistmem/internal/cluster.(*CPU).Spawn.func1", "persistmem/internal/sim.(*Engine).Run"}, "tmf"},
		{[]string{"runtime.growslice", "persistmem/internal/btree.(*Tree[go.shape.[]uint8]).Set",
			"persistmem/internal/dp2.(*DP2).apply"}, "btree"},
		{[]string{"persistmem/internal/sim/parallel.(*Cluster).Run", "main.main"}, "sim"},
		{[]string{"runtime.gcBgMarkWorker", "runtime.goexit"}, "other"},
		{[]string{"main.once", "main.main"}, "other"},
		{nil, "other"},
	}
	for _, c := range cases {
		if got := packageOf(c.stack); got != c.want {
			t.Errorf("packageOf(%q) = %q, want %q", c.stack, got, c.want)
		}
	}
}

// btreeWork inserts into a fresh B-tree: allocations inside the btree
// package.
func btreeWork() {
	tr := btree.New[[]byte]()
	for k := uint64(0); k < 20000; k++ {
		tr.Set(k*2654435761, nil)
	}
}

func TestProfileAllocsAttributesToPackage(t *testing.T) {
	allocs := profileAllocs(btreeWork)
	if allocs["btree"] <= 0 {
		t.Fatalf("btree allocations = %d, want > 0 (all: %v)", allocs["btree"], allocs)
	}
	for pkg, n := range allocs {
		if pkg != "btree" && pkg != "other" && n > allocs["btree"] {
			t.Errorf("%s charged %d allocations, more than btree's %d", pkg, n, allocs["btree"])
		}
	}
}

func TestProfileCPUAttributesToPackage(t *testing.T) {
	tr := btree.New[[]byte]()
	for k := uint64(0); k < 20000; k++ {
		tr.Set(k*2654435761, nil)
	}
	// Allocation-free lookups for half a second: enough samples, and no
	// garbage for the collector to spend unattributed CPU on.
	cpu, err := profileCPU(func() {
		for start := time.Now(); time.Since(start) < 500*time.Millisecond; {
			for k := uint64(0); k < 20000; k++ {
				tr.Get(k * 2654435761)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Samples with no persistmem frame (the collector, or the race
	// runtime under -race) are "other"; of the rest, the lookups' package
	// must take nearly all.
	var attributed int64
	for pkg, ns := range cpu {
		if pkg != "other" {
			attributed += ns
		}
	}
	if attributed == 0 {
		t.Fatalf("no CPU samples charged to a package (all: %v)", cpu)
	}
	if share := float64(cpu["btree"]) / float64(attributed); share < 0.75 {
		t.Fatalf("btree has %.2f of the attributed CPU, want nearly all (all: %v)", share, cpu)
	}
}

func TestDecodeProfileRejectsTruncatedInput(t *testing.T) {
	// Field 2 (sample), length 5, but only two bytes follow.
	if _, err := decodeProfile([]byte{0x12, 0x05, 0x01, 0x02}); err == nil {
		t.Fatal("truncated profile decoded without error")
	}
	if _, err := cpuByPackage([]byte("not gzip")); err == nil {
		t.Fatal("non-gzip profile decoded without error")
	}
}
