// Command simbench records the simulator's own performance — as opposed
// to the simulated system's — in a machine-readable file, so the kernel's
// perf trajectory can be tracked across commits.
//
// It measures the kernel microbenchmark (ns/event, allocs/event,
// events/sec for a Schedule+dispatch cycle), the transaction data plane's
// allocation behavior (allocs/txn overall and per subsystem, measured
// with an exact memory profile over a steady-state hot-stock run), a
// hot-stock run's event throughput, and the wall-clock time of the
// Figure 1 + Figure 2 sweeps at the chosen scale and parallelism.
//
// Usage:
//
//	simbench                          # smoke-scale sweep, BENCH_kernel.json
//	simbench -scale quick -parallel 8 -out bench.json
//	simbench -compare BENCH_kernel.json
//
// The -compare mode re-measures the machine-independent-ish gate metrics
// (kernel ns/event and allocs/event, data-plane allocs/txn and bytes/txn)
// and exits non-zero if any regressed more than 20% against the baseline
// file. Allocation counts are deterministic; ns/event is wall-clock and
// the 20% margin absorbs benchmark jitter, but comparing a baseline
// recorded on a very different machine can still misfire — regenerate the
// baseline where the gate runs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"persistmem/internal/bench"
	"persistmem/internal/hotstock"
	"persistmem/internal/ods"
	"persistmem/internal/sim"
)

// report is the JSON document simbench writes.
type report struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Timestamp  string `json:"timestamp"`

	// Kernel is the raw Schedule+dispatch cycle cost.
	Kernel kernelStats `json:"kernel"`

	// Txn is the transaction data plane's allocation behavior at steady
	// state (pools warm), from an exact (MemProfileRate=1) profile.
	Txn txnStats `json:"txn"`

	// HotStock is a full-stack measurement: one smoke-scale hot-stock run
	// (disk mode), events dispatched per wall-clock second.
	HotStock struct {
		Events       uint64  `json:"events"`
		WallSeconds  float64 `json:"wall_seconds"`
		EventsPerSec float64 `json:"events_per_sec"`
	} `json:"hotstock"`

	// Sweep is the experiment harness's wall time at the chosen settings.
	Sweep struct {
		Scale        string  `json:"scale"`
		Parallelism  int     `json:"parallelism"`
		Figure1WallS float64 `json:"figure1_wall_s"`
		Figure2WallS float64 `json:"figure2_wall_s"`
		TotalWallS   float64 `json:"total_wall_s"`
	} `json:"sweep"`
}

type kernelStats struct {
	NsPerEvent     float64 `json:"ns_per_event"`
	AllocsPerEvent float64 `json:"allocs_per_event"`
	BytesPerEvent  float64 `json:"bytes_per_event"`
	EventsPerSec   float64 `json:"events_per_sec"`
}

type txnStats struct {
	Txns         int     `json:"txns"`
	AllocsPerTxn float64 `json:"allocs_per_txn"`
	BytesPerTxn  float64 `json:"bytes_per_txn"`
	// Subsystems attributes the profiled allocations to the deepest
	// persistmem package on each allocation stack (allocs/txn). "hotstock"
	// is the benchmark driver itself; subsystems below 0.005 allocs/txn
	// are dropped as noise.
	Subsystems map[string]float64 `json:"subsystem_allocs_per_txn"`
}

func main() {
	var (
		scale    = flag.String("scale", "smoke", "sweep scale: full, quick, smoke")
		seed     = flag.Int64("seed", 1, "simulation seed")
		parallel = flag.Int("parallel", 0, "sweep cells simulated concurrently (0 = one per CPU)")
		out      = flag.String("out", "BENCH_kernel.json", "output file (- for stdout)")
		compare  = flag.String("compare", "", "baseline report to compare against; exits non-zero on >20% regression")
	)
	flag.Parse()

	if *compare != "" {
		os.Exit(runCompare(*compare, *seed))
	}

	var sc bench.Scale
	switch *scale {
	case "full":
		sc = bench.Full
	case "quick":
		sc = bench.Quick
	case "smoke":
		sc = bench.Smoke
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scale)
		os.Exit(2)
	}

	var rep report
	rep.GoVersion = runtime.Version()
	rep.GOMAXPROCS = runtime.GOMAXPROCS(0)
	rep.Timestamp = time.Now().UTC().Format(time.RFC3339)
	rep.Kernel = measureKernel()
	rep.Txn = measureTxn(*seed)

	// Full-stack event throughput: one smoke hot-stock run, disk mode.
	opts := ods.DefaultOptions()
	opts.Seed = *seed
	start := time.Now()
	hr := hotstock.Run(opts, hotstock.Params{
		Drivers: 1, RecordsPerDriver: bench.Smoke.RecordsPerDriver,
		InsertsPerTxn: 8, RecordBytes: 4096,
	})
	wall := time.Since(start).Seconds()
	rep.HotStock.Events = hr.Events
	rep.HotStock.WallSeconds = wall
	if wall > 0 {
		rep.HotStock.EventsPerSec = float64(hr.Events) / wall
	}

	// Sweep wall time at the requested scale/parallelism.
	runner := bench.Runner{Parallelism: *parallel}
	rep.Sweep.Scale = sc.Name
	rep.Sweep.Parallelism = bench.EffectiveParallelism(*parallel)
	t1 := time.Now()
	runner.Figure1(*seed, sc)
	rep.Sweep.Figure1WallS = time.Since(t1).Seconds()
	t2 := time.Now()
	runner.Figure2(*seed, sc)
	rep.Sweep.Figure2WallS = time.Since(t2).Seconds()
	rep.Sweep.TotalWallS = rep.Sweep.Figure1WallS + rep.Sweep.Figure2WallS

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if *out == "-" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s: kernel %.1f ns/event (%.0f allocs), %.1f allocs/txn, %s sweep %.2fs at parallel=%d\n",
		*out, rep.Kernel.NsPerEvent, rep.Kernel.AllocsPerEvent, rep.Txn.AllocsPerTxn,
		sc.Name, rep.Sweep.TotalWallS, rep.Sweep.Parallelism)
}

// measureKernel times the bare Schedule+dispatch cycle — the same loop as
// BenchmarkEngineScheduleDispatch.
func measureKernel() kernelStats {
	kr := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		e := sim.NewEngine(1)
		n := 0
		var step func()
		step = func() {
			n++
			if n < b.N {
				e.Schedule(e.Now()+1, step)
			}
		}
		e.Schedule(1, step)
		b.ResetTimer()
		e.Run()
	})
	var ks kernelStats
	ks.NsPerEvent = float64(kr.NsPerOp())
	ks.AllocsPerEvent = float64(kr.AllocsPerOp())
	ks.BytesPerEvent = float64(kr.AllocedBytesPerOp())
	if kr.NsPerOp() > 0 {
		ks.EventsPerSec = 1e9 / float64(kr.NsPerOp())
	}
	return ks
}

// measureTxn profiles the data plane's steady-state allocation rate: one
// warmup hot-stock pass fills the engine and subsystem free lists, then a
// second pass runs under an exact memory profile and the per-bucket
// allocation deltas are attributed to subsystems by stack.
func measureTxn(seed int64) txnStats {
	opts := ods.DefaultOptions()
	opts.Seed = seed
	s := ods.Build(opts)
	defer s.Eng.Shutdown()
	params := hotstock.Params{
		Drivers: 1, RecordsPerDriver: 4000, InsertsPerTxn: 8, RecordBytes: 4096,
	}
	hotstock.RunOn(s, params) // warm every free list; the budget is steady state

	old := runtime.MemProfileRate
	runtime.MemProfileRate = 1
	defer func() { runtime.MemProfileRate = old }()

	before := profileBySubsystem()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	hotstock.RunOn(s, params)
	runtime.ReadMemStats(&m1)
	after := profileBySubsystem()

	txns := params.RecordsPerDriver / params.InsertsPerTxn
	ts := txnStats{
		Txns:         txns,
		AllocsPerTxn: float64(m1.Mallocs-m0.Mallocs) / float64(txns),
		BytesPerTxn:  float64(m1.TotalAlloc-m0.TotalAlloc) / float64(txns),
		Subsystems:   make(map[string]float64),
	}
	for sub, a := range after {
		perTxn := float64(a-before[sub]) / float64(txns)
		if perTxn >= 0.005 {
			ts.Subsystems[sub] = perTxn
		}
	}
	return ts
}

// profileBySubsystem reads the cumulative allocation profile and sums
// allocated objects per subsystem. Two forced GCs first: the runtime
// publishes profile records up to two collection cycles late.
func profileBySubsystem() map[string]int64 {
	runtime.GC()
	runtime.GC()
	n, _ := runtime.MemProfile(nil, true)
	recs := make([]runtime.MemProfileRecord, n+128)
	for {
		var ok bool
		n, ok = runtime.MemProfile(recs, true)
		if ok {
			recs = recs[:n]
			break
		}
		recs = make([]runtime.MemProfileRecord, 2*len(recs))
	}
	out := make(map[string]int64)
	for i := range recs {
		out[subsystemOf(recs[i].Stack())] += recs[i].AllocObjects
	}
	return out
}

// subsystemOf walks an allocation stack from the leaf outward and names
// the first persistmem package it meets — the subsystem that asked for
// the memory, even when the allocation itself happened inside the
// runtime or a helper. Frames outside the module map to "other".
func subsystemOf(stk []uintptr) string {
	frames := runtime.CallersFrames(stk)
	for {
		f, more := frames.Next()
		if rest, ok := strings.CutPrefix(f.Function, "persistmem/"); ok {
			rest = strings.TrimPrefix(rest, "internal/")
			if i := strings.IndexAny(rest, "./"); i >= 0 {
				rest = rest[:i]
			}
			return rest
		}
		if !more {
			return "other"
		}
	}
}

// gateMetric is one -compare check: the metric regressed when the new
// value exceeds baseline*1.2+slack (slack absorbs rounding around zero
// baselines).
type gateMetric struct {
	name      string
	base, cur float64
	slack     float64
}

func (g gateMetric) regressed() bool { return g.cur > g.base*1.2+g.slack }

// runCompare re-measures the gate metrics and compares them to the
// baseline report, returning the process exit code.
func runCompare(path string, seed int64) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	var base report
	if err := json.Unmarshal(data, &base); err != nil {
		fmt.Fprintf(os.Stderr, "parse %s: %v\n", path, err)
		return 2
	}

	kernel := measureKernel()
	txn := measureTxn(seed)

	metrics := []gateMetric{
		{"kernel.ns_per_event", base.Kernel.NsPerEvent, kernel.NsPerEvent, 0},
		{"kernel.allocs_per_event", base.Kernel.AllocsPerEvent, kernel.AllocsPerEvent, 0.5},
	}
	if base.Txn.Txns > 0 {
		metrics = append(metrics,
			gateMetric{"txn.allocs_per_txn", base.Txn.AllocsPerTxn, txn.AllocsPerTxn, 0.5},
			gateMetric{"txn.bytes_per_txn", base.Txn.BytesPerTxn, txn.BytesPerTxn, 64},
		)
	} else {
		fmt.Printf("note: %s has no txn section; skipping data-plane gates\n", path)
	}

	failed := 0
	for _, m := range metrics {
		status := "ok"
		if m.regressed() {
			status = "REGRESSION"
			failed++
		}
		fmt.Printf("%-26s base %10.1f  now %10.1f  %s\n", m.name, m.base, m.cur, status)
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "simbench: %d metric(s) regressed >20%% vs %s\n", failed, path)
		return 1
	}
	fmt.Printf("simbench: all %d gate metrics within 20%% of %s\n", len(metrics), path)
	return 0
}
