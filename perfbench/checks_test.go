package main

import (
	"strings"
	"testing"
	"time"

	"persistmem/internal/btree"
	"persistmem/internal/hotstock"
	"persistmem/internal/loadgen"
	"persistmem/internal/metrics"
	"persistmem/internal/ods"
	"persistmem/internal/recovery"
	"persistmem/internal/sim"
)

func hasProblem(o *outcome, substr string) bool {
	for _, p := range o.problems {
		if strings.Contains(p, substr) {
			return true
		}
	}
	return false
}

// balancedOpen is an open-loop result whose counter identities hold.
func balancedOpen() loadgen.OpenResult {
	return loadgen.OpenResult{
		Arrivals: 10, Txns: 10, Commits: 10,
		Shards: []loadgen.ShardStats{
			{Shard: 0, Arrivals: 6, Txns: 6, Commits: 6},
			{Shard: 1, Arrivals: 4, Txns: 4, Commits: 4},
		},
	}
}

func TestCheckOpenCounterIdentities(t *testing.T) {
	r := balancedOpen()
	o := newOutcome()
	o.checkOpen(2000, &r)
	if len(o.problems) != 0 {
		t.Fatalf("balanced result flagged: %v", o.problems)
	}

	extra := balancedOpen()
	extra.Commits++ // one commit more than there were txns
	o = newOutcome()
	o.checkOpen(2000, &extra)
	if !hasProblem(o, "txns 10 != commits 11") {
		t.Fatalf("an extra commit was not flagged: %v", o.problems)
	}

	shard := balancedOpen()
	shard.Shards[1].Commits++ // the shard ledger disagrees with the totals
	o = newOutcome()
	o.checkOpen(2000, &shard)
	if !hasProblem(o, "shard txns") {
		t.Fatalf("an extra shard commit was not flagged: %v", o.problems)
	}

	dropped := balancedOpen()
	dropped.Arrivals++
	dropped.Drops++
	dropped.Shards[0].Arrivals++
	dropped.Shards[0].Drops++
	o = newOutcome()
	o.checkOpen(2000, &dropped)
	if !hasProblem(o, "1 drops") {
		t.Fatalf("a dropped arrival was not flagged as a failure: %v", o.problems)
	}
}

func TestPutRegistryFlagsConservationViolation(t *testing.T) {
	m := metrics.NewRegistry()
	m.Txns.Begun.Inc() // a begin with no in-flight, commit or abort to match it
	o := newOutcome()
	o.putRegistry(m, 1, 0)
	if !hasProblem(o, "txn-conservation") {
		t.Fatalf("unbalanced registry counter was not flagged: %v", o.problems)
	}
}

func TestCheckDriversFlagsErrors(t *testing.T) {
	ok := &callStats{resp: make([]sim.Time, 4)}
	o := newOutcome()
	o.checkDrivers(ok, 4)
	if len(o.problems) != 0 || o.failed != 0 {
		t.Fatalf("clean drivers flagged: %v", o.problems)
	}
	bad := &callStats{resp: make([]sim.Time, 3), errors: 1}
	o = newOutcome()
	o.checkDrivers(bad, 4)
	if !hasProblem(o, "1 errors") || !hasProblem(o, "committed 3 of 4") || o.failed != 1 {
		t.Fatalf("a driver error was not flagged: %v (failed %d)", o.problems, o.failed)
	}
}

func TestSameVirtualFlagsMismatch(t *testing.T) {
	ref := newOutcome()
	ref.events = 100
	ref.virt["commit_p50_ms"] = 1.5
	same := newOutcome()
	same.events = 100
	same.virt["commit_p50_ms"] = 1.5
	same.virt["phase.tcb.p50_ms"] = 0.1 // traced-only keys are not compared
	r := &result{}
	r.sameVirtual("traced", ref, same)
	if len(r.problems) != 0 {
		t.Fatalf("identical runs flagged: %v", r.problems)
	}
	diff := newOutcome()
	diff.events = 101
	diff.virt["commit_p50_ms"] = 1.5000001
	r.sameVirtual("traced", ref, diff)
	if len(r.problems) != 2 {
		t.Fatalf("want an events and a metric mismatch, got %v", r.problems)
	}
}

func TestCheckRecoveredGroundTruth(t *testing.T) {
	in := genInputs(1)
	image := func() *recovery.Rebuilt {
		tr := btree.New[[]byte]()
		for i, k := range in.rcKeys {
			tr.Set(k, in.rcBodies[i])
		}
		return &recovery.Rebuilt{Files: map[string]*btree.Tree[[]byte]{rcFile: tr}}
	}
	sc := recovery.ScenarioResult{Committed: in.rcKeys, InFlight: in.rcHang}

	o := newOutcome()
	if bad := o.checkRecovered(sc, image(), in); bad != 0 || len(o.problems) != 0 {
		t.Fatalf("exact image flagged: %d bad, %v", bad, o.problems)
	}

	missing := image()
	missing.Files[rcFile].Delete(in.rcKeys[17])
	o = newOutcome()
	if bad := o.checkRecovered(sc, missing, in); bad != 1 {
		t.Fatalf("image missing one key: %d bad, %v", bad, o.problems)
	}

	wrong := image()
	wrong.Files[rcFile].Set(in.rcKeys[3], []byte("torn"))
	o = newOutcome()
	if bad := o.checkRecovered(sc, wrong, in); bad != 1 {
		t.Fatalf("image with one wrong body: %d bad, %v", bad, o.problems)
	}

	leaked := image()
	leaked.Files[rcFile].Set(in.rcHang[0], []byte("uncommitted"))
	o = newOutcome()
	if bad := o.checkRecovered(sc, leaked, in); bad != 1 || !hasProblem(o, "in-flight") {
		t.Fatalf("visible in-flight key: %d bad, %v", bad, o.problems)
	}
}

// A re-run of recovery must find what the first run found; only the
// first run's MTTR may differ, and re-runs must agree on theirs.
func TestSameRecovery(t *testing.T) {
	first := recovery.Report{MTTR: 90 * sim.Millisecond, BytesRead: 8 << 20, RecordsScanned: 8000,
		Committed: 2000, InFlight: 1, RowsRedone: 8000, UsedTCB: true}
	rerun := first
	rerun.MTTR = 86 * sim.Millisecond
	if !sameRecovery(first, first, first) || !sameRecovery(rerun, rerun, first) {
		t.Fatal("matching reports flagged")
	}
	slower := rerun
	slower.MTTR++
	lost := rerun
	lost.RowsRedone--
	noTCB := rerun
	noTCB.UsedTCB = false
	for _, got := range []recovery.Report{slower, lost, noTCB} {
		if sameRecovery(got, rerun, first) {
			t.Errorf("re-run %+v not flagged against %+v", got, rerun)
		}
	}
}

func TestTimeReferenceRunsWholeRounds(t *testing.T) {
	const d = 50 * time.Millisecond
	start := time.Now()
	per := timeReference(d)
	if took := time.Since(start); per <= 0 || took < d {
		t.Fatalf("timeReference(%v) took %v and reports %v per round", d, took, per)
	}
}

// The benchmark's own hot-stock driver must reproduce hotstock.RunOn
// exactly when given the package's key sequence: same mean response and
// same event count.
func TestHotstockDriverMatchesPackage(t *testing.T) {
	const drivers, records, perTxn = 4, 400, 8
	opts := ods.DefaultOptions()
	opts.Seed = 7

	ref := ods.Build(opts)
	defer ref.Shutdown()
	want := hotstock.RunOn(ref, hotstock.Params{
		Drivers: drivers, RecordsPerDriver: records, InsertsPerTxn: perTxn, RecordBytes: hsRecordBytes,
	})

	keys := make([][]uint64, drivers)
	for d := range keys {
		for i := 0; i < records; i++ {
			keys[d] = append(keys[d], uint64(d)<<40|1+uint64(i))
		}
	}
	s := ods.Build(opts)
	defer s.Shutdown()
	stats, _ := spawnHotstock(s, keys, perTxn, false)
	s.Run(1)

	var total sim.Time
	var n int
	for _, st := range stats {
		for _, r := range st.resp {
			total += r
		}
		n += len(st.resp)
	}
	if n != drivers*records/perTxn {
		t.Fatalf("driver committed %d txns, want %d", n, drivers*records/perTxn)
	}
	if got := total / sim.Time(n); got != want.MeanResp() {
		t.Errorf("mean response %v, hotstock.RunOn %v", got, want.MeanResp())
	}
	if got := s.EventsExecuted(); got != want.Events {
		t.Errorf("%d events, hotstock.RunOn %d", got, want.Events)
	}
}
