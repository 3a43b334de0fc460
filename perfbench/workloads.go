package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"persistmem/internal/cluster"
	"persistmem/internal/disk"
	"persistmem/internal/hist"
	"persistmem/internal/loadgen"
	"persistmem/internal/metrics"
	"persistmem/internal/ods"
	"persistmem/internal/recovery"
	"persistmem/internal/sim"
)

// Workload sizes. Each is fixed work, so host time measures the same
// simulation on every commit; the sizes were chosen so one iteration
// takes roughly 0.3–5 s of host time on a 2-CPU container and a run
// repeats it enough times for its medians to settle.
const (
	// hotstock-disk: the paper's §4.3 shape (4 drivers, 8 × 4 KB inserts
	// per txn over 4 files × 4 partitions, disk audit).
	hsDrivers       = 4
	hsTxnsPerDriver = 1000
	hsInsertsPerTxn = 8
	hsRecordBytes   = 4096

	// recovery-pm: one client commits rcTxns txns of 4 inserts, leaves
	// one in flight, and the node loses power.
	rcTxns       = 2000
	rcInserts    = 4
	rcMinBody    = 32
	rcMaxBody    = 256
	rcClientCPU  = 3
	rcFile       = "TRADES"
	rcInFlightHi = uint64(1) << 62 // in-flight keys live above every committed key

	// rcRecoveries is how many times the measured phase recovers the
	// crashed store. Recovery only reads the durable state, so a re-run —
	// what a failure during recovery forces — must rebuild the same image
	// with the same report; every re-run is checked against the ground
	// truth and the first run. One recovery takes about 30 ms of host time
	// against about 0.3 s of pre-crash load, and re-running it is what
	// gives a run enough measured recovery time for its median to settle.
	rcRecoveries = 10
)

// olRung is one step of the open-loop ladder: an offered rate (txn/s)
// held for an arrival window of virtual time.
type olRung struct {
	rate   float64
	window sim.Time
}

// olLadder's first rung is the reference whose latencies are the end-to-
// end commit metrics: 1500 txn/s, about 65% of the 4-shard PM knee
// (≈2300 txn/s), held for 15 000 arrivals. Nearer the knee the tail is
// set by rare bursts at the hot shard. Over ten seeds, p99 at 2000 txn/s
// spread 16% between quartiles with a 6 s window; here it spreads about 6%.
// The other rungs bracket the knee and only decide the SLO rate.
var olLadder = []olRung{
	{1500, 10 * sim.Second},
	{2000, sim.Second},
	{2200, sim.Second},
	{2400, sim.Second},
	{2800, sim.Second},
}

const (
	olSLO  = 10 * sim.Millisecond
	olFile = "TRADES"
)

// iteration is one setup's worth of measured work. run is timed as the
// measured phase; collect summarizes it afterwards, untimed.
type iteration struct {
	run     func()
	collect func() *outcome
	stop    func()
}

// outcome is what one iteration measured and checked.
type outcome struct {
	committed int64 // denominator of every per-txn metric
	attempted int64
	failed    int64
	events    uint64
	// virt holds virtual-time and count metrics, deterministic per seed.
	virt map[string]float64
	// recoveries is how many recoveries the measured phase ran (0 for the
	// commit workloads).
	recoveries int
	// regs are the traced iteration's registries (nil when untraced).
	regs     []tracedRegistry
	problems []string
	spans    []span
	// samples prints sample counts beside the percentiles.
	samples map[string]int
}

// tracedRegistry is a store's metrics registry and the virtual time its
// measured work ended at.
type tracedRegistry struct {
	m   *metrics.Registry
	now sim.Time
}

func newOutcome() *outcome {
	return &outcome{virt: map[string]float64{}, samples: map[string]int{}}
}

func (o *outcome) fail(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// workload names a benchmark workload and builds its iterations.
type workload struct {
	name string
	// setup builds the stores and runs any pre-measurement load. traced
	// attaches a metrics registry to every store it builds.
	setup func(in *inputs, traced bool) iteration
}

var workloads = []workload{
	{name: "hotstock-disk", setup: setupHotstock},
	{name: "openloop-pm", setup: setupOpenLoop},
	{name: "recovery-pm", setup: setupRecovery},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// inputs are the generated inputs of one run, a pure function of the
// seed: the store seed, hot-stock key streams, and the recovery load's
// keys and row bodies.
type inputs struct {
	seed     int64
	hsKeys   [][]uint64
	rcKeys   []uint64
	rcBodies [][]byte
	rcHang   []uint64
}

func genInputs(seed int64) *inputs {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{seed: seed}
	// Hot-stock keys: each driver owns the key space under its driver
	// bits, so no two drivers ever touch one key; within it the keys are
	// random, so the partitions a transaction touches vary with the seed.
	in.hsKeys = make([][]uint64, hsDrivers)
	for d := range in.hsKeys {
		in.hsKeys[d] = uniqueKeys(rng, hsTxnsPerDriver*hsInsertsPerTxn, uint64(d)<<40, 1<<40)
	}
	in.rcKeys = uniqueKeys(rng, rcTxns*rcInserts, 1, 1<<40)
	in.rcBodies = make([][]byte, len(in.rcKeys))
	for i := range in.rcBodies {
		b := make([]byte, rcMinBody+rng.Intn(rcMaxBody-rcMinBody+1))
		rng.Read(b)
		in.rcBodies[i] = b
	}
	in.rcHang = uniqueKeys(rng, rcInserts, rcInFlightHi, 1<<40)
	return in
}

// uniqueKeys draws n distinct keys in [base, base+span).
func uniqueKeys(rng *rand.Rand, n int, base, span uint64) []uint64 {
	seen := make(map[uint64]bool, n)
	out := make([]uint64, 0, n)
	for len(out) < n {
		k := base + uint64(rng.Int63n(int64(span)))
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out
}

// callStats collects one driver population's per-call virtual durations
// for committed transactions, plus the spans of a traced run.
type callStats struct {
	begin, commit, resp []sim.Time
	errors              int
	trace               bool
	spans               []span
}

// insert is one row a driver transaction writes.
type insert struct {
	file string
	key  uint64
	body []byte
}

// runTxn drives one transaction through the public ods.Session API —
// Begin, InsertAsync per row, Commit — timing each call in virtual time.
func runTxn(p *cluster.Process, se *ods.Session, rows []insert, st *callStats) error {
	start := p.Now()
	txn, err := se.Begin()
	if err != nil {
		st.errors++
		return err
	}
	begun := p.Now()
	for _, r := range rows {
		if err := txn.InsertAsync(r.file, r.key, r.body); err != nil {
			st.errors++
			txn.Abort()
			return err
		}
	}
	issued := p.Now()
	if err := txn.Commit(); err != nil {
		st.errors++
		return err
	}
	end := p.Now()
	st.begin = append(st.begin, begun-start)
	st.commit = append(st.commit, end-issued)
	st.resp = append(st.resp, end-start)
	if st.trace {
		id := uint64(txn.ID())
		st.spans = append(st.spans,
			span{Txn: id, Name: "txn", Start: start, End: end},
			span{Txn: id, Name: "ods.Begin", Parent: "txn", Start: start, End: begun},
			span{Txn: id, Name: "ods.InsertAsync", Parent: "txn", Start: begun, End: issued},
			span{Txn: id, Name: "ods.Commit", Parent: "txn", Start: issued, End: end})
	}
	return nil
}

// span is one traced call: a benchmark-side interval around a call into
// the store. Spans of one transaction share Txn.
type span struct {
	Txn    uint64   `json:"txn"`
	Name   string   `json:"name"`
	Parent string   `json:"parent,omitempty"`
	Start  sim.Time `json:"start_ns"`
	End    sim.Time `json:"end_ns"`
}

// hsRows lays driver d's keys out as hot-stock transactions: each
// transaction inserts an equal share of its rows into every file, in
// file order.
func hsRows(files []string, keys []uint64, perTxn int, body []byte) [][]insert {
	perFile := perTxn / len(files)
	var txns [][]insert
	for i := 0; i+perTxn <= len(keys); i += perTxn {
		rows := make([]insert, 0, perTxn)
		for fi, f := range files {
			for j := 0; j < perFile; j++ {
				rows = append(rows, insert{file: f, key: keys[i+fi*perFile+j], body: body})
			}
		}
		txns = append(txns, rows)
	}
	return txns
}

// spawnHotstock starts one closed-loop driver per key stream on s,
// mirroring hotstock.Start's process names and CPU placement. It
// returns the per-driver statistics and completion times, filled once
// the engine drains.
func spawnHotstock(s *ods.Store, keys [][]uint64, perTxn int, trace bool) ([]callStats, []sim.Time) {
	files := make([]string, len(s.Opts.Files))
	for i, f := range s.Opts.Files {
		files[i] = f.Name
	}
	body := make([]byte, hsRecordBytes)
	stats := make([]callStats, len(keys))
	doneAt := make([]sim.Time, len(keys))
	for d := range keys {
		d := d
		txns := hsRows(files, keys[d], perTxn, body)
		stats[d].trace = trace
		s.Cl.CPU(d%s.Opts.CPUs).Spawn(fmt.Sprintf("driver%d", d), func(p *cluster.Process) {
			se := s.NewSession(p)
			for _, rows := range txns {
				runTxn(p, se, rows, &stats[d])
			}
			doneAt[d] = p.Now()
		})
	}
	return stats, doneAt
}

func withRegistry(opts ods.Options, traced bool) ods.Options {
	if traced {
		opts.Metrics = metrics.NewRegistry()
	}
	return opts
}

func setupHotstock(in *inputs, traced bool) iteration {
	opts := ods.DefaultOptions()
	opts.Seed = in.seed
	s := ods.Build(withRegistry(opts, traced))
	var stats []callStats
	var doneAt []sim.Time
	return iteration{
		run: func() {
			stats, doneAt = spawnHotstock(s, in.hsKeys, hsInsertsPerTxn, traced)
			s.Run(1)
		},
		collect: func() *outcome {
			o := newOutcome()
			var all callStats
			var elapsed sim.Time
			for d, st := range stats {
				all.begin = append(all.begin, st.begin...)
				all.commit = append(all.commit, st.commit...)
				all.resp = append(all.resp, st.resp...)
				all.errors += st.errors
				o.spans = append(o.spans, st.spans...)
				elapsed = max(elapsed, doneAt[d])
			}
			o.checkDrivers(&all, hsDrivers*hsTxnsPerDriver)
			o.events = s.EventsExecuted()
			o.putCalls(&all, elapsed)
			o.putStore(s, elapsed, o.committed)
			o.putRegistry(s.Opts.Metrics, o.committed, elapsed)
			return o
		},
		stop: s.Shutdown,
	}
}

// checkDrivers checks that a closed-loop driver population committed
// every one of its txns without an error.
func (o *outcome) checkDrivers(st *callStats, txns int) {
	o.attempted = int64(txns)
	o.committed = int64(len(st.resp))
	o.failed = int64(st.errors)
	if st.errors != 0 {
		o.fail("drivers reported %d errors", st.errors)
	}
	if o.committed != o.attempted {
		o.fail("drivers committed %d of %d txns", o.committed, o.attempted)
	}
}

// putCalls records the commit-latency, goodput and ods call metrics of
// a closed-loop driver population.
func (o *outcome) putCalls(st *callStats, elapsed sim.Time) {
	o.putQuantile("commit_p50_ms", st.resp, 50, sim.Millisecond)
	o.putQuantile("commit_p99_ms", st.resp, 99, sim.Millisecond)
	o.putQuantile("ods.begin_p50_us", st.begin, 50, sim.Microsecond)
	o.putQuantile("ods.commit_p50_ms", st.commit, 50, sim.Millisecond)
	if elapsed > 0 {
		o.virt["goodput_tps"] = float64(len(st.resp)) / elapsed.Seconds()
	}
}

func (o *outcome) putQuantile(name string, xs []sim.Time, q float64, unit sim.Time) {
	o.virt[name] = float64(quantile(xs, q)) / float64(unit)
	o.samples[name] = len(xs)
}

// histogram is a latency histogram that answers percentiles with the
// low edge of a log-linear bucket: hist.H and metrics.LatencyHist.
type histogram interface {
	Percentile(p float64) sim.Time
	Count() int64
	Max() sim.Time
}

// histQuantile estimates the q-th percentile of h by interpolating
// inside its bucket. Percentile alone returns the bucket's low edge, and
// the buckets are about 3% wide, wider than the seed-to-seed variation of
// a median. The samples that share the target rank's bucket are taken as
// spread evenly up to the low edge of the next occupied bucket, which is
// the usual histogram-quantile estimate.
func histQuantile(h histogram, q float64) float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	// at returns the bucket low edge of the sample at rank r.
	at := func(r int64) sim.Time { return h.Percentile((float64(r) + 0.5) / float64(n) * 100) }
	r := min(int64(q/100*float64(n)), n-1)
	low := at(r)
	first := int64(sort.Search(int(r+1), func(i int) bool { return at(int64(i)) >= low }))
	next := r + int64(sort.Search(int(n-r), func(i int) bool { return at(r+int64(i)) > low }))
	high := h.Max()
	if next < n {
		high = at(next)
	}
	return float64(low) + (float64(r-first)+0.5)/float64(next-first)*float64(high-low)
}

// quantile returns the nearest-rank q-th percentile of xs (0 if empty).
func quantile(xs []sim.Time, q float64) sim.Time {
	if len(xs) == 0 {
		return 0
	}
	s := append([]sim.Time(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(math.Ceil(q/100*float64(len(s)))) - 1
	return s[min(max(rank, 0), len(s)-1)]
}

// putStore records the per-layer counters every store keeps whether or
// not it is traced — ADP group commit, disk arms and writes, DP2 write-
// backs, TMF two-phase commits and control-block writes — per txn of
// the txns committed on s over elapsed virtual time.
func (o *outcome) putStore(s *ods.Store, elapsed sim.Time, txns int64) {
	var flushes, commits, grouped, diskWrites, writebacks int64
	for _, a := range s.ADPs {
		st := a.Stats()
		flushes += st.Flushes
		commits += st.Commits
		grouped += st.GroupedCommits
	}
	// meanBusy is the volumes' mean arm utilization over the run.
	meanBusy := func(vols []*disk.Volume) float64 {
		if len(vols) == 0 || elapsed <= 0 {
			return 0
		}
		var busy sim.Time
		for _, v := range vols {
			busy += v.Stats.BusyTime
		}
		return float64(busy) / float64(elapsed) / float64(len(vols))
	}
	o.virt["disk.audit.busy"] = meanBusy(s.AuditVolumes)
	o.virt["disk.data.busy"] = meanBusy(s.DataVolumes)
	for _, vols := range [][]*disk.Volume{s.AuditVolumes, s.DataVolumes} {
		for _, v := range vols {
			diskWrites += v.Stats.Writes
		}
	}
	for _, d := range s.DP2s {
		writebacks += d.Stats().Writebacks
	}
	tst := s.TMF.Stats()
	o.virt["adp.commits_per_flush"] = ratio(commits, flushes)
	o.virt["adp.grouped_commit_ratio"] = ratio(grouped, commits)
	o.virt["disk.writes_per_txn"] = ratio(diskWrites, txns)
	o.virt["dp2.writebacks_per_txn"] = ratio(writebacks, txns)
	o.virt["tmf.two_phase_commits_per_txn"] = ratio(tst.TwoPhaseCommits, txns)
	o.virt["tmf.tcb_writes_per_txn"] = ratio(tst.TCBWrites, txns)
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// putRegistry records the per-layer span metrics of a traced store:
// ADP boxcar and flush, disk queue and service, PM writes, fabric
// transfers, lock waits, DP2 spans and the commit-path phase tiling.
// Counts are per txn of the txns committed on the registry's store. It
// also runs the registry's own conservation laws and checks that the
// phase sums tile the commit total exactly. A nil registry records
// nothing.
func (o *outcome) putRegistry(m *metrics.Registry, txns int64, now sim.Time) {
	if m == nil {
		return
	}
	o.regs = append(o.regs, tracedRegistry{m, now})
	per := func(n int64) float64 { return ratio(n, txns) }
	hq := func(name string, h *metrics.LatencyHist, q float64, unit sim.Time) {
		o.virt[name] = histQuantile(h, q) / float64(unit)
		o.samples[name] = int(h.Count())
	}
	hq("adp.boxcar_wait_p50_ms", m.ADP.BoxcarWait, 50, sim.Millisecond)
	hq("adp.flush_disk_p50_ms", m.ADP.FlushDisk, 50, sim.Millisecond)
	hq("disk.audit.service_p50_ms", m.AuditDisk.Service, 50, sim.Millisecond)
	hq("disk.audit.queue_p99_ms", m.AuditDisk.Queue, 99, sim.Millisecond)
	o.virt["pmclient.writes_per_txn"] = per(m.PM.Writes.Value())
	o.virt["pmclient.bytes_per_txn"] = per(m.PM.Bytes.Value())
	hq("pmclient.write_p50_us", m.PM.Write, 50, sim.Microsecond)
	hq("pmclient.write_p99_us", m.PM.Write, 99, sim.Microsecond)
	o.virt["servernet.ops_per_txn"] = per(m.Net.Ops.Value())
	o.virt["servernet.bytes_per_txn"] = per(m.Net.Bytes.Value())
	hq("servernet.transfer_p50_us", m.Net.Transfer, 50, sim.Microsecond)
	hq("servernet.transfer_p99_us", m.Net.Transfer, 99, sim.Microsecond)
	o.virt["locks.waits_per_txn"] = per(m.Locks.Enters.Value())
	hq("locks.wait_p99_ms", m.Locks.Wait, 99, sim.Millisecond)
	o.virt["locks.timeouts"] = float64(m.Locks.Timeouts.Value())
	hq("dp2.insert_p50_us", m.DP2.Insert, 50, sim.Microsecond)
	o.virt["dp2.checkpoints_per_txn"] = per(m.DP2.Checkpoint.Count())
	hq("dp2.audit_send_p50_ms", m.DP2.AuditSend, 50, sim.Millisecond)

	var phaseSum sim.Time
	for _, ph := range m.Commit.PhaseStats() {
		for q, v := range map[string]sim.Time{"p50": ph.P50, "p99": ph.P99} {
			name := "phase." + ph.Name + "." + q + "_ms"
			o.virt[name] = float64(v) / float64(sim.Millisecond)
			o.samples[name] = int(ph.Count)
		}
		phaseSum += ph.Sum
	}
	total := m.Commit.TotalStat()
	if total.Count == 0 {
		o.fail("commit path recorded no transactions")
	}
	if phaseSum != total.Sum {
		o.fail("commit phases sum to %v, commit total is %v", phaseSum, total.Sum)
	}
	if n := m.Commit.Incomplete.Value(); n != 0 {
		o.fail("%d commit paths completed with marks missing", n)
	}
	for _, err := range m.CheckConservation() {
		o.fail("registry conservation: %v", err)
	}
}

// olStore builds one rung's store: 4 shards on 4 data volumes with PM
// audit and transaction control blocks, as in the saturation sweep.
func olStore(seed int64, traced bool) *ods.Store {
	opts := ods.DefaultOptions()
	opts.Seed = seed
	opts.Durability = ods.PMDurability
	opts.Files = []ods.FileSpec{{Name: olFile, Partitions: 4}}
	opts.DataVolumes = 4
	opts.PMRegionBytes = 8 << 20
	return ods.Build(withRegistry(opts, traced))
}

func olConfig(rung olRung) loadgen.OpenConfig {
	cfg := loadgen.DefaultOpenConfig() // 1 M virtual clients, 4 workers/shard, Zipf 1.2, 20% reads
	cfg.File = olFile
	cfg.Rate = rung.rate
	cfg.Window = rung.window
	cfg.CrossShardPct = 25
	return cfg
}

func setupOpenLoop(in *inputs, traced bool) iteration {
	stores := make([]*ods.Store, len(olLadder))
	for i := range olLadder {
		stores[i] = olStore(in.seed, traced)
	}
	results := make([]loadgen.OpenResult, len(olLadder))
	return iteration{
		run: func() {
			for i, rung := range olLadder {
				results[i] = loadgen.RunOpen(stores[i], olConfig(rung))
			}
		},
		collect: func() *outcome {
			o := newOutcome()
			slo := 0.0
			for i, r := range results {
				o.checkOpen(olLadder[i].rate, &r)
				o.attempted += r.Arrivals + r.Reads + r.ReadErrors
				o.failed += r.Aborts + r.Errors + r.Drops + r.ReadErrors
				o.committed += r.Commits
				o.events += r.Events
				if sloMet(&r) {
					slo = olLadder[i].rate
				}
			}
			o.virt["loadgen.slo_rate_tps"] = slo
			o.putOpenRung(stores[0], &results[0])
			return o
		},
		stop: func() {
			for _, s := range stores {
				s.Shutdown()
			}
		},
	}
}

// sloMet reports whether a rung met the latency limit without a growing
// backlog: p99 arrival→commit within olSLO, and the queue drained within
// one SLO of the window's end.
func sloMet(r *loadgen.OpenResult) bool {
	return histQuantile(&r.Sojourn, 99) <= float64(olSLO) && r.Elapsed-r.Window <= olSLO
}

// checkOpen checks an open-loop rung's counter identities, overall and
// summed over shards.
func (o *outcome) checkOpen(rate float64, r *loadgen.OpenResult) {
	if r.Arrivals != r.Txns+r.Drops {
		o.fail("rate %g: arrivals %d != txns %d + drops %d", rate, r.Arrivals, r.Txns, r.Drops)
	}
	if r.Txns != r.Commits+r.Aborts+r.Errors {
		o.fail("rate %g: txns %d != commits %d + aborts %d + errors %d", rate, r.Txns, r.Commits, r.Aborts, r.Errors)
	}
	var sum loadgen.ShardStats
	for _, sh := range r.Shards {
		sum.Arrivals += sh.Arrivals
		sum.Drops += sh.Drops
		sum.Txns += sh.Txns
		sum.Commits += sh.Commits
		sum.Aborts += sh.Aborts
		sum.Errors += sh.Errors
	}
	if sum.Arrivals != sum.Txns+sum.Drops {
		o.fail("rate %g: shard arrivals %d != txns %d + drops %d", rate, sum.Arrivals, sum.Txns, sum.Drops)
	}
	if sum.Txns != sum.Commits+sum.Aborts+sum.Errors {
		o.fail("rate %g: shard txns %d != commits %d + aborts %d + errors %d", rate, sum.Txns, sum.Commits, sum.Aborts, sum.Errors)
	}
	if sum.Arrivals != r.Arrivals || sum.Txns != r.Txns || sum.Commits != r.Commits {
		o.fail("rate %g: shard sums (%d arrivals, %d txns, %d commits) differ from totals (%d, %d, %d)",
			rate, sum.Arrivals, sum.Txns, sum.Commits, r.Arrivals, r.Txns, r.Commits)
	}
	if n := r.Aborts + r.Errors + r.Drops + r.ReadErrors; n != 0 {
		o.fail("rate %g: %d aborts, %d errors, %d drops, %d read errors", rate, r.Aborts, r.Errors, r.Drops, r.ReadErrors)
	}
}

// putOpenRung records the reference rung's latency, goodput, loadgen
// and layer metrics.
func (o *outcome) putOpenRung(s *ods.Store, r *loadgen.OpenResult) {
	hq := func(name string, h *hist.H, q float64, unit sim.Time) {
		o.virt[name] = histQuantile(h, q) / float64(unit)
		o.samples[name] = int(h.Count())
	}
	hq("commit_p50_ms", &r.Sojourn, 50, sim.Millisecond)
	hq("commit_p99_ms", &r.Sojourn, 99, sim.Millisecond)
	hq("loadgen.read_p50_ms", &r.ReadLatency, 50, sim.Millisecond)
	hq("loadgen.read_p99_ms", &r.ReadLatency, 99, sim.Millisecond)
	hq("ods.read_p50_us", &r.ReadLatency, 50, sim.Microsecond)
	hq("loadgen.queue_wait_p99_ms", &r.QueueWait, 99, sim.Millisecond)
	o.virt["goodput_tps"] = r.Delivered()
	o.virt["loadgen.drain_ms"] = float64(r.Elapsed-r.Window) / float64(sim.Millisecond)
	var hot int64
	depth := 0
	for _, sh := range r.Shards {
		hot = max(hot, sh.Arrivals)
		depth = max(depth, sh.MaxDepth)
	}
	o.virt["loadgen.max_depth"] = float64(depth)
	o.virt["loadgen.hot_shard_share"] = ratio(hot, r.Arrivals)
	o.putStore(s, r.Elapsed, r.Commits)
	o.putRegistry(s.Opts.Metrics, r.Commits, r.Elapsed)
}

// rcStore builds the recovery scenario's data-retaining PM store, sized
// as recovery.RunScenario sizes it.
func rcStore(seed int64, traced bool) *ods.Store {
	opts := ods.DefaultOptions()
	opts.Seed = seed
	opts.Durability = ods.PMDurability
	opts.RetainData = true
	opts.Files = []ods.FileSpec{{Name: rcFile, Partitions: 4}}
	opts.DataVolumes = 4
	opts.DataVolumeBytes = 256 << 20
	opts.AuditVolumeBytes = 256 << 20
	opts.NPMUBytes = 256 << 20
	opts.PMRegionBytes = 32 << 20
	return ods.Build(withRegistry(opts, traced))
}

// crashAfterLoad commits the generated transactions from one client,
// leaves one more transaction's inserts in flight, and power-fails the
// node and its PM devices — recovery.RunScenario's shape with the
// benchmark's own keys and row bodies.
func crashAfterLoad(s *ods.Store, in *inputs, st *callStats) (recovery.ScenarioResult, sim.Time) {
	res := recovery.ScenarioResult{Store: s}
	crashNow := s.Eng.NewChan("crash")
	var loadEnd sim.Time
	s.Cl.CPU(rcClientCPU).Spawn("workload", func(p *cluster.Process) {
		se := s.NewSession(p)
		rows := make([]insert, rcInserts)
		for i := 0; i < rcTxns; i++ {
			for j := range rows {
				k := i*rcInserts + j
				rows[j] = insert{file: rcFile, key: in.rcKeys[k], body: in.rcBodies[k]}
			}
			if err := runTxn(p, se, rows, st); err != nil {
				res.Errs = append(res.Errs, fmt.Errorf("txn %d: %w", i, err))
				continue
			}
			for _, r := range rows {
				res.Committed = append(res.Committed, r.key)
			}
		}
		loadEnd = p.Now()
		txn, err := se.Begin()
		if err != nil {
			res.Errs = append(res.Errs, fmt.Errorf("begin in-flight txn: %w", err))
			return
		}
		for _, k := range in.rcHang {
			txn.InsertAsync(rcFile, k, []byte("uncommitted"))
			res.InFlight = append(res.InFlight, k)
		}
		txn.WaitPending()
		crashNow.TrySend(nil)
		p.Wait(sim.Minute) // the crash kills this process first
	})
	s.Eng.Spawn("crasher", func(p *sim.Proc) {
		crashNow.Recv(p)
		s.Cl.PowerFail()
		s.NPMUPrimary.PowerFail()
		s.NPMUMirror.PowerFail()
	})
	s.Eng.Run()
	return res, loadEnd
}

func setupRecovery(in *inputs, traced bool) iteration {
	s := rcStore(in.seed, traced)
	st := callStats{trace: traced}
	sc, loadEnd := crashAfterLoad(s, in, &st)
	crashed := s.EventsExecuted()
	reps := make([]recovery.Report, rcRecoveries)
	rbs := make([]*recovery.Rebuilt, rcRecoveries)
	errs := make([]error, rcRecoveries)
	return iteration{
		run: func() {
			for i := range reps {
				reps[i], rbs[i], errs[i] = sc.RecoverPM(recovery.Options{}, true)
			}
		},
		collect: func() *outcome {
			o := newOutcome()
			o.recoveries = rcRecoveries
			loaded := int64(len(st.resp))
			// Every recovery recovers every committed txn.
			o.committed = loaded * rcRecoveries
			o.attempted = rcTxns + rcRecoveries*int64(len(in.rcKeys)+len(in.rcHang))
			o.spans = st.spans
			for _, e := range sc.Errs {
				o.fail("pre-crash load: %v", e)
			}
			o.failed = int64(st.errors)
			for i, rb := range rbs {
				switch {
				case errs[i] != nil:
					o.fail("recovery %d: %v", i+1, errs[i])
					o.failed++
				case !sameRecovery(reps[i], reps[min(i, 1)], reps[0]):
					o.fail("recovery %d reported %+v, the first two reported %+v and %+v", i+1, reps[i], reps[0], reps[1])
					o.failed++
				default:
					o.failed += int64(o.checkRecovered(sc, rb, in))
				}
				// Only the first image stays reachable for peak_heap_mb.
				if i > 0 {
					rbs[i] = nil
				}
			}
			// The load's events ran before the crash, in set-up; only
			// recovery's own events are measured.
			o.events = s.EventsExecuted() - crashed
			o.putCalls(&st, loadEnd)
			o.putStore(s, loadEnd, loaded)
			o.putRegistry(s.Opts.Metrics, loaded, loadEnd)
			rep := reps[0]
			o.virt["recovery.mttr_ms"] = float64(rep.MTTR) / float64(sim.Millisecond)
			o.virt["recovery.bytes_read"] = float64(rep.BytesRead)
			o.virt["recovery.records_scanned"] = float64(rep.RecordsScanned)
			o.virt["recovery.rows_redone"] = float64(rep.RowsRedone)
			return o
		},
		stop: s.Shutdown,
	}
}

// sameRecovery reports whether a recovery's report agrees with the first
// recovery's in everything it found, and with rerun's in its virtual
// duration. The first recovery, right after the reboot, takes longer in
// virtual time than the re-runs (90.7 against 86.4 ms at 2000 txns), so
// only re-runs must match each other's MTTR.
func sameRecovery(got, rerun, first recovery.Report) bool {
	if got.MTTR != rerun.MTTR {
		return false
	}
	got.MTTR = first.MTTR
	return got == first
}

// checkRecovered checks the rebuilt image against the ground truth:
// every committed key is present with its exact body, and no in-flight
// key is. It returns the number of mismatching keys.
func (o *outcome) checkRecovered(sc recovery.ScenarioResult, rb *recovery.Rebuilt, in *inputs) int {
	body := make(map[uint64][]byte, len(in.rcKeys))
	for i, k := range in.rcKeys {
		body[k] = in.rcBodies[i]
	}
	bad := 0
	for _, k := range sc.Committed {
		got, ok := rb.Get(rcFile, k)
		if !ok || string(got) != string(body[k]) {
			bad++
			if bad <= 3 {
				o.fail("committed key %d missing or wrong after recovery", k)
			}
		}
	}
	for _, k := range sc.InFlight {
		if _, ok := rb.Get(rcFile, k); ok {
			bad++
			o.fail("in-flight key %d visible after recovery", k)
		}
	}
	if len(sc.Committed) != rcTxns*rcInserts {
		bad += rcTxns*rcInserts - len(sc.Committed)
		o.fail("only %d of %d rows committed before the crash", len(sc.Committed), rcTxns*rcInserts)
	}
	if rb.Rows() != len(sc.Committed) {
		o.fail("rebuilt image holds %d rows, %d were committed", rb.Rows(), len(sc.Committed))
	}
	return bad
}
