// Hot-stock sweep cells. Every figure sweep decomposes into independent
// hot-stock cells, each built on its own store and engine, which the
// Runner's worker pool (pool.go) executes concurrently.
package bench

import (
	"persistmem/internal/hotstock"
	"persistmem/internal/ods"
)

// cellSpec is one hot-stock sweep cell: a seed, a durability mode and
// the workload shape.
type cellSpec struct {
	seed    int64
	d       ods.Durability
	drivers int
	inserts int
	records int
}

func (c cellSpec) opts() ods.Options {
	opts := ods.DefaultOptions()
	opts.Seed = c.seed
	opts.Durability = c.d
	if c.d == ods.PMDirectDurability {
		opts.PMRegionBytes = 8 << 20 // 16 per-DP2 regions must fit the NPMU
	}
	return opts
}

func (c cellSpec) params() hotstock.Params {
	// Round the record count to a whole number of transactions.
	records := (c.records / c.inserts) * c.inserts
	if records == 0 {
		records = c.inserts
	}
	return hotstock.Params{
		Drivers:          c.drivers,
		RecordsPerDriver: records,
		InsertsPerTxn:    c.inserts,
		RecordBytes:      4096,
	}
}

// run executes the cell on its own freshly built store.
func (c cellSpec) run() hotstock.Result {
	return hotstock.Run(c.opts(), c.params())
}

// runCells executes a sweep's independent cells on the Runner's pool and
// returns their results in cell order.
func (r Runner) runCells(specs []cellSpec) []hotstock.Result {
	out := make([]hotstock.Result, len(specs))
	r.forEach(len(specs), func(i int) { out[i] = specs[i].run() })
	return out
}
