// Package hotstock implements the paper's benchmark (§4.3): Denzinger's
// "hot-stock" test. Up to 4 driver processes — each representing one hotly
// traded stock — insert 4 KB records into 4 files spread over the data
// volumes. Each transaction performs a number of asynchronous inserts
// into each file and commits before the next transaction may be issued
// (the regulatory ordering constraint that makes the workload response-
// time critical, §2's Hot Stock problem).
//
// Transaction "size" follows the paper's naming: 32K = 8 inserts of 4 KB
// per transaction, 64K = 16, 128K = 32, spread evenly across the files.
package hotstock

import (
	"fmt"
	"sort"

	"persistmem/internal/cluster"
	"persistmem/internal/ods"
	"persistmem/internal/sim"
	"persistmem/internal/trace"
)

// Params configures one hot-stock run.
type Params struct {
	// Drivers is the number of hot stocks (1–4 in the paper).
	Drivers int
	// RecordsPerDriver is the total records each driver inserts (32000 in
	// the paper; scale down for quick runs — the per-transaction shape is
	// unchanged).
	RecordsPerDriver int
	// InsertsPerTxn is the boxcar degree: total 4 KB inserts per
	// transaction across all files (8, 16 or 32 in the paper).
	InsertsPerTxn int
	// RecordBytes is the record size (4096 in the paper).
	RecordBytes int
	// Tracer, when set, records every driver's transaction timelines.
	Tracer *trace.Recorder
}

// TxnKB names the transaction size the way the paper's figures do.
func (p Params) TxnKB() int { return p.InsertsPerTxn * p.RecordBytes / 1024 }

// Validate panics on malformed parameters.
func (p Params) Validate(files int) {
	if p.Drivers < 1 {
		panic("hotstock: need at least one driver")
	}
	if p.InsertsPerTxn%files != 0 {
		panic(fmt.Sprintf("hotstock: InsertsPerTxn %d must divide evenly across %d files", p.InsertsPerTxn, files))
	}
	if p.RecordsPerDriver%p.InsertsPerTxn != 0 {
		panic("hotstock: RecordsPerDriver must be a multiple of InsertsPerTxn")
	}
}

// DriverResult summarizes one driver's run.
type DriverResult struct {
	Driver    int
	Txns      int
	TotalResp sim.Time
	MeanResp  sim.Time
	P95Resp   sim.Time
	MaxResp   sim.Time
	Errors    int
}

// Result summarizes one hot-stock run.
type Result struct {
	Params     Params
	Durability ods.Durability
	// Elapsed is the wall (virtual) time from start until the last driver
	// commits its last transaction.
	Elapsed sim.Time
	// Events is the number of simulation events the kernel dispatched for
	// the run — the denominator for events/sec and allocs/event metrics.
	Events  uint64
	Drivers []DriverResult
}

// MeanResp aggregates the mean response time across drivers.
func (r Result) MeanResp() sim.Time {
	var total sim.Time
	var txns int
	for _, d := range r.Drivers {
		total += d.TotalResp
		txns += d.Txns
	}
	if txns == 0 {
		return 0
	}
	return total / sim.Time(txns)
}

// Throughput returns committed transactions per virtual second.
func (r Result) Throughput() float64 {
	txns := 0
	for _, d := range r.Drivers {
		txns += d.Txns
	}
	if r.Elapsed == 0 {
		return 0
	}
	return float64(txns) / r.Elapsed.Seconds()
}

// Run executes the benchmark on a freshly built store and returns its
// result. The store is built from opts; the run is deterministic for a
// given (opts.Seed, params).
func Run(opts ods.Options, params Params) Result {
	s := ods.Build(opts)
	defer s.Shutdown()
	return RunOn(s, params)
}

// RunOn executes the benchmark against an existing store (which must be
// otherwise idle): it spawns one driver process per hot stock, drains
// the store's engine, and collects the drivers' results.
func RunOn(s *ods.Store, params Params) Result {
	files := make([]string, len(s.Opts.Files))
	for i, f := range s.Opts.Files {
		files[i] = f.Name
	}
	params.Validate(len(files))
	perFile := params.InsertsPerTxn / len(files)
	txns := params.RecordsPerDriver / params.InsertsPerTxn

	results := make([]DriverResult, params.Drivers)
	doneAt := make([]sim.Time, params.Drivers)

	for d := 0; d < params.Drivers; d++ {
		d := d
		cpu := d % s.Opts.CPUs
		s.Cl.CPU(cpu).Spawn(fmt.Sprintf("driver%d", d), func(p *cluster.Process) {
			se := s.NewSession(p)
			se.SetTracer(params.Tracer)
			res := DriverResult{Driver: d}
			resps := make([]sim.Time, 0, txns)
			nextKey := uint64(d)<<40 | 1
			body := make([]byte, params.RecordBytes)
			for t := 0; t < txns; t++ {
				start := p.Now()
				txn, err := se.Begin()
				if err != nil {
					res.Errors++
					continue
				}
				for _, f := range files {
					for i := 0; i < perFile; i++ {
						txn.InsertAsync(f, nextKey, body)
						nextKey++
					}
				}
				if err := txn.Commit(); err != nil {
					res.Errors++
					continue
				}
				resp := p.Now() - start
				res.Txns++
				res.TotalResp += resp
				resps = append(resps, resp)
			}
			if res.Txns > 0 {
				res.MeanResp = res.TotalResp / sim.Time(res.Txns)
				sort.Slice(resps, func(i, j int) bool { return resps[i] < resps[j] })
				res.P95Resp = resps[len(resps)*95/100]
				res.MaxResp = resps[len(resps)-1]
			}
			results[d] = res
			doneAt[d] = p.Now()
		})
	}

	s.Run(1)

	r := Result{Params: params, Durability: s.Opts.Durability, Drivers: results,
		Events: s.EventsExecuted()}
	for _, t := range doneAt {
		if t > r.Elapsed {
			r.Elapsed = t
		}
	}
	return r
}
