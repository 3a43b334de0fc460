// Command perfbench is the repository's benchmark. It runs one of three
// workloads against the simulated online data store, all in a single
// process on the single-engine build, and prints one JSON result line:
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads:
//
//   - hotstock-disk: the paper's §4.3 hot-stock test, closed loop, disk
//     audit — ADP group commit on the audit disk dominates the commit.
//   - openloop-pm: Poisson arrivals from 1 M virtual clients over 4 PM
//     shards at a fixed ladder of offered rates around the knee — the PM
//     commit path over the fabric, cross-shard 2PC and browse reads.
//   - recovery-pm: a committed load, one transaction in flight, a power
//     failure, and PM recovery with transaction control blocks — MTTR.
//
// Virtual-time metrics describe the modelled store and are exact for a
// seed; host-time metrics describe the simulator. With --trace 0 the
// workload is repeated untraced for --seconds and the end-to-end metrics
// are medians over the repetitions; the measured phase's host time is
// reported relative to a fixed reference loop timed beside it, which
// cancels the host's own drift in speed. With --trace 1 the run alternates
// traced and untraced repetitions, then attributes CPU time and
// allocations to simulator packages in separate profiled passes, and
// reports the per-layer metrics. Every run checks the store's outputs
// and exits non-zero when a check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"persistmem/internal/metrics"
)

// metricDef declares one reported metric.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the store or of the simulator
// sees. Every workload reports every one of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_rel", "ratio"},
	{"allocs_per_txn", "allocs/txn"},
	{"peak_heap_mb", "MB"},
	{"commit_p50_ms", "ms"},
	{"commit_p99_ms", "ms"},
	{"goodput_tps", "tx/s"},
}

// perLayer are the traced run's metrics, named after the package they
// describe. A workload that bypasses a layer reports it as 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"sim.events_per_txn", "count/txn"},
		{"sim.host_ns_per_event", "ns"},
		{"host.wall_s", "s"},
		{"host.ref_round_ms", "ms"},
		{"adp.boxcar_wait_p50_ms", "ms"},
		{"adp.flush_disk_p50_ms", "ms"},
		{"adp.commits_per_flush", "count"},
		{"adp.grouped_commit_ratio", "ratio"},
		{"disk.audit.busy", "ratio"},
		{"disk.audit.service_p50_ms", "ms"},
		{"disk.audit.queue_p99_ms", "ms"},
		{"disk.data.busy", "ratio"},
		{"disk.writes_per_txn", "count/txn"},
		{"pmclient.writes_per_txn", "count/txn"},
		{"pmclient.bytes_per_txn", "B/txn"},
		{"pmclient.write_p50_us", "us"},
		{"pmclient.write_p99_us", "us"},
		{"servernet.ops_per_txn", "count/txn"},
		{"servernet.bytes_per_txn", "B/txn"},
		{"servernet.transfer_p50_us", "us"},
		{"servernet.transfer_p99_us", "us"},
		{"locks.waits_per_txn", "count/txn"},
		{"locks.wait_p99_ms", "ms"},
		{"locks.timeouts", "count"},
		{"tmf.two_phase_commits_per_txn", "count/txn"},
		{"tmf.tcb_writes_per_txn", "count/txn"},
		{"dp2.insert_p50_us", "us"},
		{"dp2.checkpoints_per_txn", "count/txn"},
		{"dp2.audit_send_p50_ms", "ms"},
		{"dp2.writebacks_per_txn", "count/txn"},
		{"ods.begin_p50_us", "us"},
		{"ods.commit_p50_ms", "ms"},
		{"ods.read_p50_us", "us"},
		{"loadgen.queue_wait_p99_ms", "ms"},
		{"loadgen.max_depth", "count"},
		{"loadgen.drain_ms", "ms"},
		{"loadgen.hot_shard_share", "ratio"},
		{"loadgen.read_p50_ms", "ms"},
		{"loadgen.read_p99_ms", "ms"},
		{"loadgen.slo_rate_tps", "tx/s"},
		{"recovery.mttr_ms", "ms"},
		{"recovery.host_ms", "ms"},
		{"recovery.bytes_read", "B"},
		{"recovery.records_scanned", "count"},
		{"recovery.rows_redone", "count"},
		{"trace.overhead", "ratio"},
	}
	for _, ph := range metrics.PhaseNames {
		defs = append(defs, metricDef{"phase." + ph + ".p50_ms", "ms"}, metricDef{"phase." + ph + ".p99_ms", "ms"})
	}
	for _, pkg := range hostPackages {
		defs = append(defs, metricDef{pkg + ".allocs_per_txn", "allocs/txn"}, metricDef{pkg + ".cpu_share", "ratio"})
	}
	return defs
}()

// minIterations is the fewest repetitions a run medians over, however
// short --seconds is.
const minIterations = 3

// minSetups is the fewest set-ups setup_s medians over. A store builds
// in well under a millisecond, so workloads whose set-up is only the
// build repeat it beyond the measured repetitions.
const minSetups = 51

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: hotstock-disk, openloop-pm or recovery-pm")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 30, "how long to measure, in host seconds")
	trace := fs.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	traceDir := fs.String("trace-dir", ".bench_build/traces", "where a traced run writes its spans and registry dumps")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload hotstock-disk|openloop-pm|recovery-pm, --seconds > 0 and --trace 0|1\n")
		return 2
	}
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	in := genInputs(*seed)
	budget := time.Duration(*seconds * float64(time.Second))
	var res *result
	if *trace == 0 {
		res = measure(w, in, budget)
	} else {
		res = measureTraced(w, in, budget)
		if err := writeTrace(*traceDir, w.name, *seed, res.traced); err != nil {
			res.problems = append(res.problems, err.Error())
		}
	}
	return res.print(stdout, stderr)
}

// sampleRun is one repetition of a workload: its outcome plus the host
// cost of its set-up and measured phase.
type sampleRun struct {
	o       *outcome
	setup   time.Duration
	wall    time.Duration
	mallocs uint64
	heap    uint64
}

// once sets the workload up, runs its measured phase through wrap (which
// must call its argument exactly once), and collects the outcome.
func once(w workload, in *inputs, traced bool, wrap func(func())) sampleRun {
	var sr sampleRun
	t0 := time.Now()
	it := w.setup(in, traced)
	sr.setup = time.Since(t0)
	defer it.stop()

	// Collect set-up's garbage first, so no measured phase pays for a GC
	// cycle that set-up triggered.
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t1 := time.Now()
	wrap(it.run)
	sr.wall = time.Since(t1)
	runtime.ReadMemStats(&m1)
	sr.mallocs = m1.Mallocs - m0.Mallocs

	sr.o = it.collect()
	// The live heap while the measured stores are still reachable: the
	// simulated state is largest at the end of the measured phase.
	runtime.GC()
	var m2 runtime.MemStats
	runtime.ReadMemStats(&m2)
	sr.heap = m2.HeapAlloc
	return sr
}

func plain(fn func()) { fn() }

// result is everything one benchmark run reports.
type result struct {
	workload  string
	attempted int64
	failed    int64
	problems  []string
	metrics   map[string]float64
	units     []metricDef
	// bypassable marks a per-layer report, where a layer the workload
	// does not exercise reports 0 instead of failing the run.
	bypassable bool
	samples    map[string]int
	traced     *outcome
}

func newResult(w workload) *result {
	return &result{workload: w.name, metrics: map[string]float64{}, samples: map[string]int{}}
}

// add folds one repetition's counts and check failures into the result.
func (r *result) add(sr sampleRun) {
	r.attempted += sr.o.attempted
	r.failed += sr.o.failed
	r.problems = append(r.problems, sr.o.problems...)
}

// sameVirtual checks that a repetition reproduced the reference one's
// virtual-time metrics and event count exactly. Only the reference's
// keys are compared, so a traced repetition's extra span metrics are
// not.
func (r *result) sameVirtual(what string, ref, got *outcome) {
	if ref.events != got.events {
		r.problems = append(r.problems, fmt.Sprintf("%s: %d events, reference run had %d", what, got.events, ref.events))
	}
	for _, k := range sortedKeys(ref.virt) {
		if v, ok := got.virt[k]; !ok || v != ref.virt[k] {
			r.problems = append(r.problems, fmt.Sprintf("%s: %s = %v, reference run had %v", what, k, v, ref.virt[k]))
		}
	}
}

// measure repeats the workload untraced for the budget and reports the
// end-to-end metrics: host costs as medians over the repetitions, and
// virtual-time metrics, which every repetition must reproduce exactly.
// wall_rel is the median measured-phase host time over the median host
// time of one reference round, each repetition preceded by reference
// rounds.
func measure(w workload, in *inputs, budget time.Duration) *result {
	r := newResult(w)
	r.units = endToEnd
	start := time.Now()
	var runs []sampleRun
	var refs []float64
	for len(runs) < minIterations || time.Since(start) < budget {
		refs = append(refs, timeReference(referenceTime(runs)).Seconds())
		sr := once(w, in, false, plain)
		r.add(sr)
		if len(runs) > 0 {
			r.sameVirtual(fmt.Sprintf("repetition %d", len(runs)+1), runs[0].o, sr.o)
		}
		runs = append(runs, sr)
	}
	ref := runs[0].o
	setups := make([]float64, len(runs))
	for i, s := range runs {
		setups[i] = s.setup.Seconds()
	}
	extra := time.Now()
	for len(setups) < minSetups && time.Since(extra) < budget/10 {
		runtime.GC() // as before every measured set-up
		t0 := time.Now()
		it := w.setup(in, false)
		setups = append(setups, time.Since(t0).Seconds())
		it.stop()
	}
	r.metrics["setup_s"] = medianOf(setups)
	r.metrics["wall_rel"] = median(runs, func(s sampleRun) float64 { return s.wall.Seconds() }) / medianOf(refs)
	r.metrics["allocs_per_txn"] = median(runs, func(s sampleRun) float64 {
		return float64(s.mallocs) / float64(max(s.o.committed, 1))
	})
	r.metrics["peak_heap_mb"] = median(runs, func(s sampleRun) float64 { return float64(s.heap) / (1 << 20) })
	for _, k := range []string{"commit_p50_ms", "commit_p99_ms", "goodput_tps"} {
		if v, ok := ref.virt[k]; ok {
			r.metrics[k] = v
		}
		if n, ok := ref.samples[k]; ok {
			r.samples[k] = n
		}
	}
	r.samples["setup_s"], r.samples["wall_rel"] = len(setups), len(runs)
	return r
}

// referenceTime is how long to run the reference loop before the next
// repetition: a tenth of the last repetition's measured phase, and at
// least minReference.
func referenceTime(runs []sampleRun) time.Duration {
	if n := len(runs); n > 0 {
		return max(minReference, runs[n-1].wall/10)
	}
	return minReference
}

// measureTraced runs the per-layer passes: traced and untraced
// repetitions alternate for half the budget (their wall-time ratio is
// the tracing overhead, and their virtual metrics must agree), CPU-
// profiled repetitions fill the rest, and one repetition runs under an
// exact allocation profile.
func measureTraced(w workload, in *inputs, budget time.Duration) *result {
	r := newResult(w)
	r.units = perLayer
	r.bypassable = true
	start := time.Now()
	var plainRuns []sampleRun
	var overhead, refs []float64
	for len(overhead) < 2 || time.Since(start) < budget/2 {
		refs = append(refs, timeReference(referenceTime(plainRuns)).Seconds())
		u := once(w, in, false, plain)
		t := once(w, in, true, plain)
		r.add(u)
		r.add(t)
		r.sameVirtual("traced repetition", u.o, t.o)
		if len(plainRuns) > 0 {
			r.sameVirtual("untraced repetition", plainRuns[0].o, u.o)
		}
		plainRuns = append(plainRuns, u)
		overhead = append(overhead, t.wall.Seconds()/u.wall.Seconds())
		if r.traced == nil {
			r.traced = t.o
		}
	}

	cpu := map[string]int64{}
	for n := 0; n == 0 || time.Since(start) < budget; n++ {
		var perr error
		sr := once(w, in, false, func(fn func()) {
			var byPkg map[string]int64
			byPkg, perr = profileCPU(fn)
			for pkg, ns := range byPkg {
				cpu[pkg] += ns
			}
		})
		r.add(sr)
		if perr != nil {
			r.problems = append(r.problems, perr.Error())
		}
	}
	var allocs map[string]int64
	ar := once(w, in, false, func(fn func()) { allocs = profileAllocs(fn) })
	r.add(ar)

	ref := plainRuns[0].o
	for k, v := range r.traced.virt {
		r.metrics[k] = v
	}
	for k, n := range r.traced.samples {
		r.samples[k] = n
	}
	wallMedian := median(plainRuns, func(s sampleRun) float64 { return s.wall.Seconds() })
	r.metrics["host.wall_s"] = wallMedian
	r.metrics["host.ref_round_ms"] = medianOf(refs) * 1e3
	r.metrics["sim.events_per_txn"] = ratio(int64(ref.events), ref.committed)
	if ref.events > 0 {
		r.metrics["sim.host_ns_per_event"] = wallMedian * 1e9 / float64(ref.events)
	}
	if ref.recoveries > 0 {
		r.metrics["recovery.host_ms"] = wallMedian * 1e3 / float64(ref.recoveries)
	}
	r.metrics["trace.overhead"] = medianOf(overhead)
	var cpuTotal int64
	for _, ns := range cpu {
		cpuTotal += ns
	}
	for _, pkg := range hostPackages {
		r.metrics[pkg+".allocs_per_txn"] = ratio(allocs[pkg], ref.committed)
		r.metrics[pkg+".cpu_share"] = ratio(cpu[pkg], cpuTotal)
	}
	if cpuTotal == 0 {
		r.problems = append(r.problems, "CPU profile recorded no samples")
	}
	return r
}

// median returns the median of f over the runs.
func median(runs []sampleRun, f func(sampleRun) float64) float64 {
	xs := make([]float64, len(runs))
	for i, s := range runs {
		xs[i] = f(s)
	}
	return medianOf(xs)
}

// medianOf sorts xs and returns its median (the mean of the middle two
// for an even count; 0 when empty).
func medianOf(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	return (xs[(n-1)/2] + xs[n/2]) / 2
}

// check validates the metric set the run is about to report: every
// declared metric present and finite. It returns the JSON metrics
// object.
func (r *result) check() map[string]map[string]any {
	out := map[string]map[string]any{}
	for _, d := range r.units {
		v, ok := r.metrics[d.name]
		if !ok && !r.bypassable {
			r.problems = append(r.problems, fmt.Sprintf("metric %s was not measured", d.name))
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.problems = append(r.problems, fmt.Sprintf("metric %s is %v", d.name, v))
			v = 0
		}
		out[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	return out
}

// print writes the human-readable report and, as the last line of
// stdout, the JSON result. It returns the process exit code.
func (r *result) print(stdout, stderr io.Writer) int {
	ms := r.check()
	fmt.Fprintf(stdout, "workload %s: %d attempted, %d failed\n", r.workload, r.attempted, r.failed)
	for _, d := range r.units {
		line := fmt.Sprintf("  %-34s %14.6g %s", d.name, ms[d.name]["value"], d.unit)
		if n, ok := r.samples[d.name]; ok {
			line += fmt.Sprintf("  (n=%d)", n)
		}
		fmt.Fprintln(stdout, line)
	}
	for _, p := range r.problems {
		fmt.Fprintf(stderr, "perfbench: check failed: %s\n", p)
	}
	correct := len(r.problems) == 0
	line, err := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   ms,
	})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !correct {
		return 1
	}
	return 0
}

// writeTrace writes a traced repetition's spans, commit-phase table and
// registry dumps as one JSON file under dir.
func writeTrace(dir, workload string, seed int64, o *outcome) error {
	if o == nil {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	var dumps []string
	var phases []any
	for _, tr := range o.regs {
		dumps = append(dumps, tr.m.Dump(tr.now))
		for _, ph := range tr.m.Commit.PhaseStats() {
			phases = append(phases, ph)
		}
		phases = append(phases, tr.m.Commit.TotalStat())
	}
	data, err := json.Marshal(map[string]any{
		"workload": workload,
		"seed":     seed,
		"phases":   phases,
		"registry": dumps,
		"spans":    o.spans,
	})
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}
