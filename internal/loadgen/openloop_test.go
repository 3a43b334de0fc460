package loadgen

import (
	"testing"

	"persistmem/internal/metrics"
	"persistmem/internal/ods"
	"persistmem/internal/sim"
)

// shardedStore builds a store with one file split over nShards DP2
// partitions.
func shardedStore(d ods.Durability, seed int64, nShards int) *ods.Store {
	opts := ods.DefaultOptions()
	opts.Seed = seed
	opts.Durability = d
	opts.Files = []ods.FileSpec{{Name: "TRADES", Partitions: nShards}}
	opts.DataVolumes = 4
	opts.PMRegionBytes = 8 << 20
	return ods.Build(opts)
}

// checkIdentities asserts the documented counter taxonomy, globally and
// per shard, and that the shard ledgers sum to the global ones.
func checkIdentities(t *testing.T, r *OpenResult) {
	t.Helper()
	if r.Arrivals != r.Txns+r.Drops {
		t.Errorf("Arrivals %d != Txns %d + Drops %d", r.Arrivals, r.Txns, r.Drops)
	}
	if r.Txns != r.Commits+r.Aborts+r.Errors {
		t.Errorf("Txns %d != Commits %d + Aborts %d + Errors %d", r.Txns, r.Commits, r.Aborts, r.Errors)
	}
	var sum ShardStats
	for _, sh := range r.Shards {
		if sh.Txns != sh.Commits+sh.Aborts+sh.Errors {
			t.Errorf("shard %d: Txns %d != Commits %d + Aborts %d + Errors %d",
				sh.Shard, sh.Txns, sh.Commits, sh.Aborts, sh.Errors)
		}
		if sh.Arrivals != sh.Txns+sh.Drops {
			t.Errorf("shard %d: Arrivals %d != Txns %d + Drops %d", sh.Shard, sh.Arrivals, sh.Txns, sh.Drops)
		}
		sum.Arrivals += sh.Arrivals
		sum.Drops += sh.Drops
		sum.Txns += sh.Txns
		sum.Commits += sh.Commits
	}
	if sum.Arrivals != r.Arrivals || sum.Drops != r.Drops || sum.Txns != r.Txns || sum.Commits != r.Commits {
		t.Errorf("shard sums %+v do not match global (%d arrivals, %d drops, %d txns, %d commits)",
			sum, r.Arrivals, r.Drops, r.Txns, r.Commits)
	}
}

func TestOpenLoopProducesWork(t *testing.T) {
	s := shardedStore(ods.PMDurability, 1, 4)
	cfg := DefaultOpenConfig()
	cfg.Rate = 500
	cfg.Window = sim.Second
	r := RunOpen(s, cfg)
	if r.Commits == 0 || r.Inserts == 0 {
		t.Fatalf("no work done:\n%s", r.String())
	}
	if r.Errors != 0 || r.Aborts != 0 {
		t.Errorf("faultless run had %d errors, %d aborts", r.Errors, r.Aborts)
	}
	if r.Reads == 0 {
		t.Error("no reads at the default 20% read fraction")
	}
	if r.ReadErrors != 0 {
		t.Errorf("%d read errors browsing committed keys", r.ReadErrors)
	}
	checkIdentities(t, &r)
	if len(r.Shards) != 4 {
		t.Fatalf("got %d shard ledgers, want 4", len(r.Shards))
	}
	// Sojourn includes queue wait; it is sampled once per commit.
	if r.Sojourn.Count() != r.Commits {
		t.Errorf("sojourn samples %d != commits %d", r.Sojourn.Count(), r.Commits)
	}
	if r.QueueWait.Count() != r.Txns {
		t.Errorf("queue-wait samples %d != txns %d", r.QueueWait.Count(), r.Txns)
	}
	if len(r.String()) == 0 {
		t.Error("empty String()")
	}
	s.Eng.Shutdown()
}

// TestOpenLoopOfferedLoadTracksRate: the end-to-end measured offered
// load stays within sampling error of the configured λ (the tight 1%
// bound is pinned on the generator itself in arrival_test.go; a 2s
// window holds ~4000 arrivals, so 5% here is already ~3σ).
func TestOpenLoopOfferedLoadTracksRate(t *testing.T) {
	s := shardedStore(ods.PMDurability, 3, 4)
	cfg := DefaultOpenConfig()
	cfg.Rate = 2000
	cfg.Window = 2 * sim.Second
	r := RunOpen(s, cfg)
	if got := r.Offered(); got < cfg.Rate*0.95 || got > cfg.Rate*1.05 {
		t.Errorf("offered %.1f/s, want within 5%% of %.0f/s", got, cfg.Rate)
	}
	s.Eng.Shutdown()
}

func TestOpenLoopDeterministic(t *testing.T) {
	run := func() OpenResult {
		s := shardedStore(ods.PMDurability, 11, 4)
		cfg := DefaultOpenConfig()
		cfg.Rate = 800
		cfg.Window = 500 * sim.Millisecond
		r := RunOpen(s, cfg)
		s.Eng.Shutdown()
		return r
	}
	a, b := run(), run()
	if a.Arrivals != b.Arrivals || a.Commits != b.Commits || a.Elapsed != b.Elapsed ||
		a.Events != b.Events || a.Inserts != b.Inserts || a.Reads != b.Reads {
		t.Errorf("nondeterministic:\n%s\nvs\n%s", a.String(), b.String())
	}
	if a.Sojourn.Mean() != b.Sojourn.Mean() || a.Sojourn.Percentile(99) != b.Sojourn.Percentile(99) {
		t.Errorf("sojourn differs: %v vs %v", a.Sojourn.Mean(), b.Sojourn.Mean())
	}
	for i := range a.Shards {
		if a.Shards[i] != b.Shards[i] {
			t.Errorf("shard %d differs: %+v vs %+v", i, a.Shards[i], b.Shards[i])
		}
	}
}

// TestOpenLoopHotShard: Zipf skew routes low keys — and so low-numbered
// shards (PartitionOf is key % partitions, and key 0 is hottest) — far
// more arrivals than the rest.
func TestOpenLoopHotShard(t *testing.T) {
	s := shardedStore(ods.PMDurability, 5, 8)
	cfg := DefaultOpenConfig()
	cfg.Rate = 1000
	cfg.Window = sim.Second
	r := RunOpen(s, cfg)
	hot, cold := r.Shards[0].Arrivals, r.Shards[len(r.Shards)-1].Arrivals
	if hot < 3*cold {
		t.Errorf("shard 0 got %d arrivals vs shard %d's %d — skew not visible per shard",
			hot, len(r.Shards)-1, cold)
	}
	checkIdentities(t, &r)
	s.Eng.Shutdown()
}

// TestOpenLoopOverload drives far past the knee: offered load is
// decoupled from completions, the backlog drains after the window, and
// sojourn p99 (queueing included) dwarfs service p99.
func TestOpenLoopOverload(t *testing.T) {
	s := shardedStore(ods.PMDurability, 7, 4)
	cfg := DefaultOpenConfig()
	cfg.Rate = 6000 // ~3x the measured PM capacity of this store
	cfg.Window = sim.Second
	r := RunOpen(s, cfg)
	if r.Elapsed <= r.Window {
		t.Errorf("elapsed %v did not exceed window %v under 3x overload", r.Elapsed, r.Window)
	}
	if off, del := r.Offered(), r.Delivered(); del > off/2 {
		t.Errorf("delivered %.1f/s not clearly below offered %.1f/s", del, off)
	}
	if sp, svc := r.Sojourn.Percentile(99), r.Service.Percentile(99); sp < 10*svc {
		t.Errorf("sojourn p99 %v not far above service p99 %v — queueing invisible", sp, svc)
	}
	if r.Depth.Max() < 100 {
		t.Errorf("max observed queue depth %v too small for a 3x overload", r.Depth.Max())
	}
	checkIdentities(t, &r)
	s.Eng.Shutdown()
}

// TestOpenLoopMaxQueueDrops: a bounded admission queue sheds load and
// the drops land in the taxonomy without being executed.
func TestOpenLoopMaxQueueDrops(t *testing.T) {
	s := shardedStore(ods.PMDurability, 9, 4)
	cfg := DefaultOpenConfig()
	cfg.Rate = 6000
	cfg.Window = sim.Second
	cfg.MaxQueue = 32
	r := RunOpen(s, cfg)
	if r.Drops == 0 {
		t.Fatal("no drops with MaxQueue=32 under 3x overload")
	}
	if r.Depth.Max() > sim.Time(cfg.MaxQueue) {
		t.Errorf("observed depth %v above the %d bound", r.Depth.Max(), cfg.MaxQueue)
	}
	checkIdentities(t, &r)
	s.Eng.Shutdown()
}

// TestOpenLoopBursty: MMPP arrivals preserve the configured mean rate
// and still commit work.
func TestOpenLoopBursty(t *testing.T) {
	s := shardedStore(ods.PMDurability, 13, 4)
	cfg := DefaultOpenConfig()
	cfg.Rate = 1000
	cfg.Burst = true
	cfg.Window = 4 * sim.Second
	r := RunOpen(s, cfg)
	if r.Commits == 0 {
		t.Fatal("bursty run committed nothing")
	}
	// Mean preserved within burst-count sampling error (~20 on/off
	// cycles per second of window).
	if got := r.Offered(); got < cfg.Rate*0.80 || got > cfg.Rate*1.20 {
		t.Errorf("bursty offered %.1f/s, want near %.0f/s mean", got, cfg.Rate)
	}
	checkIdentities(t, &r)
	s.Eng.Shutdown()
}

// TestOpenLoopPreWarmedEngine: Elapsed and latencies are relative to
// the run's own start, so a harness started on an engine that has
// already advanced reports the same window arithmetic as a cold one.
func TestOpenLoopPreWarmedEngine(t *testing.T) {
	s := shardedStore(ods.PMDurability, 15, 4)
	s.Eng.RunUntil(3 * sim.Second) // warm: drain startup, advance the clock
	cfg := DefaultOpenConfig()
	cfg.Rate = 500
	cfg.Window = 500 * sim.Millisecond
	r := RunOpen(s, cfg)
	if r.Elapsed >= 3*sim.Second {
		t.Errorf("Elapsed %v contains the 3s warmup — absolute time leaked into the window", r.Elapsed)
	}
	if r.Elapsed < cfg.Window {
		t.Errorf("Elapsed %v below the %v arrival window", r.Elapsed, cfg.Window)
	}
	if got := r.Offered(); got < 400 || got > 600 {
		t.Errorf("offered %.1f/s on a warmed engine, want ~500/s", got)
	}
	checkIdentities(t, &r)
	s.Eng.Shutdown()
}

// TestOpenLoopLoadSpans: the metrics layer's load conservation law
// (arrivals == starts + drops + still-queued) holds after a drained
// run, and the counters mirror the harness's own ledger.
func TestOpenLoopLoadSpans(t *testing.T) {
	opts := ods.DefaultOptions()
	opts.Seed = 17
	opts.Durability = ods.PMDurability
	opts.Files = []ods.FileSpec{{Name: "TRADES", Partitions: 4}}
	opts.DataVolumes = 4
	opts.PMRegionBytes = 8 << 20
	opts.Metrics = metrics.NewRegistry()
	s := ods.Build(opts)

	cfg := DefaultOpenConfig()
	cfg.Rate = 4000
	cfg.Window = sim.Second
	cfg.MaxQueue = 64
	r := RunOpen(s, cfg)
	if errs := opts.Metrics.CheckConservation(); len(errs) != 0 {
		t.Errorf("conservation checks failed: %v", errs)
	}
	ld := opts.Metrics.Load
	if got := ld.Arrivals.Value(); got != r.Arrivals {
		t.Errorf("metrics arrivals %d != result arrivals %d", got, r.Arrivals)
	}
	if got := ld.Drops.Value(); got != r.Drops {
		t.Errorf("metrics drops %d != result drops %d", got, r.Drops)
	}
	if got := ld.Queued.Value(); got != 0 {
		t.Errorf("queued gauge %d after full drain, want 0", got)
	}
	if ld.Wait.Count() != r.Txns {
		t.Errorf("wait samples %d != executed txns %d", ld.Wait.Count(), r.Txns)
	}
	s.Eng.Shutdown()
}

// TestStartOpenUnknownFile: driving a file the store does not have is a
// programming error and must fail loudly.
func TestStartOpenUnknownFile(t *testing.T) {
	s := shardedStore(ods.PMDurability, 1, 2)
	defer s.Eng.Shutdown()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for unknown file")
		}
	}()
	cfg := DefaultOpenConfig()
	cfg.File = "NOSUCH"
	startOpen(s, cfg)
}

// TestOpenLoopSparseConfigDeterministic: a config naming only a rate and
// a window takes every other field from DefaultOpenConfig, and two runs
// of the same seed render byte-identical summaries and event counts.
func TestOpenLoopSparseConfigDeterministic(t *testing.T) {
	run := func() (string, uint64) {
		opts := ods.DefaultOptions()
		opts.Seed = 1
		s := ods.Build(opts)
		defer s.Shutdown()
		res := RunOpen(s, OpenConfig{Rate: 2000, Window: 100 * sim.Millisecond})
		if res.Commits == 0 || res.Offered() <= 0 || res.Delivered() <= 0 {
			t.Errorf("sparse-config run did no work: %s", res.String())
		}
		return res.String(), res.Events
	}
	s1, e1 := run()
	s2, e2 := run()
	if s1 != s2 || e1 != e2 || e1 == 0 {
		t.Errorf("same-seed runs diverged (%d vs %d events):\n%s\n---\n%s", e1, e2, s1, s2)
	}
}

// TestZeroResultRates: rates over an empty window or elapsed time are
// zero, not NaN.
func TestZeroResultRates(t *testing.T) {
	var open OpenResult
	if open.Offered() != 0 || open.Delivered() != 0 {
		t.Error("zero OpenResult reports a nonzero rate")
	}
	if (Result{}).TxnPerSec() != 0 {
		t.Error("zero Result reports a nonzero rate")
	}
}
