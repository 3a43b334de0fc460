package bench

import (
	"runtime"
	"testing"
)

// TestForEachCoversAllJobs checks the pool primitive itself: every index
// runs exactly once at several parallelism settings, including more
// workers than jobs and the GOMAXPROCS default.
func TestForEachCoversAllJobs(t *testing.T) {
	for _, par := range []int{0, 1, 2, 8, 100} {
		const n = 37
		counts := make([]int32, n)
		done := make(chan int, n)
		ForEach(par, n, func(i int) { done <- i })
		close(done)
		for i := range done {
			counts[i]++
		}
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("parallelism %d: job %d ran %d times, want 1", par, i, c)
			}
		}
	}
}

// TestEffectiveParallelism pins the one place the "0 means all CPUs"
// default is resolved: non-positive requests normalize to GOMAXPROCS and
// positive requests pass through untouched.
func TestEffectiveParallelism(t *testing.T) {
	for _, p := range []int{0, -1, -100} {
		if got := EffectiveParallelism(p); got != runtime.GOMAXPROCS(0) {
			t.Errorf("EffectiveParallelism(%d) = %d, want GOMAXPROCS %d", p, got, runtime.GOMAXPROCS(0))
		}
	}
	for _, p := range []int{1, 2, 7, 128} {
		if got := EffectiveParallelism(p); got != p {
			t.Errorf("EffectiveParallelism(%d) = %d, want %d", p, got, p)
		}
	}
}

func TestRunnerWorkers(t *testing.T) {
	if got := (Runner{}).workers(100); got != runtime.GOMAXPROCS(0) {
		t.Errorf("zero Runner workers = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := (Runner{Parallelism: 8}).workers(3); got != 3 {
		t.Errorf("workers clamped to %d, want 3 (job count)", got)
	}
	if got := (Runner{Parallelism: 1}).workers(100); got != 1 {
		t.Errorf("workers = %d, want 1", got)
	}
}

// TestParallelSweepsDeterministic is the harness's core guarantee: the
// figures computed with the sequential path (Parallelism=1) and with a
// worker pool (Parallelism=8) render byte-identical tables and CSVs,
// and a repeated parallel run agrees with the first — cell scheduling
// order can never leak into results.
func TestParallelSweepsDeterministic(t *testing.T) {
	seq := Runner{Parallelism: 1}
	par := Runner{Parallelism: 8}

	f1s := seq.Figure1(1, Smoke)
	f1p := par.Figure1(1, Smoke)
	f1p2 := par.Figure1(1, Smoke)
	if f1s.CSV() != f1p.CSV() {
		t.Errorf("figure1 CSV differs between sequential and parallel runs:\n--- seq\n%s--- par\n%s", f1s.CSV(), f1p.CSV())
	}
	if f1s.Table() != f1p.Table() {
		t.Errorf("figure1 table differs between sequential and parallel runs")
	}
	if f1p.CSV() != f1p2.CSV() {
		t.Errorf("figure1 CSV differs between two parallel runs of the same seed")
	}

	f2s := seq.Figure2(1, Smoke)
	f2p := par.Figure2(1, Smoke)
	f2p2 := par.Figure2(1, Smoke)
	if f2s.CSV() != f2p.CSV() {
		t.Errorf("figure2 CSV differs between sequential and parallel runs:\n--- seq\n%s--- par\n%s", f2s.CSV(), f2p.CSV())
	}
	if f2s.Table() != f2p.Table() {
		t.Errorf("figure2 table differs between sequential and parallel runs")
	}
	if f2p.CSV() != f2p2.CSV() {
		t.Errorf("figure2 CSV differs between two parallel runs of the same seed")
	}
}

// TestParallelClaimsDeterministic extends the determinism check to the
// remaining pooled sweeps (C2, C3 and the ablations render from measured
// values, so identical tables mean identical measurements).
func TestParallelClaimsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping pooled claim sweeps in -short mode")
	}
	seq := Runner{Parallelism: 1}
	par := Runner{Parallelism: 8}
	checks := []struct {
		name      string
		seq, parl func() string
	}{
		{"claimC2", func() string { return seq.ClaimC2(1, Smoke).Table() }, func() string { return par.ClaimC2(1, Smoke).Table() }},
		{"claimC3", func() string { return seq.ClaimC3(1, Smoke).Table() }, func() string { return par.ClaimC3(1, Smoke).Table() }},
		{"ablationA1", func() string { return seq.AblationA1(1, Smoke).Table() }, func() string { return par.AblationA1(1, Smoke).Table() }},
		{"ablationA2", func() string { return seq.AblationA2(1, Smoke).Table() }, func() string { return par.AblationA2(1, Smoke).Table() }},
		{"ablationA3", func() string { return seq.AblationA3(1, Smoke).Table() }, func() string { return par.AblationA3(1, Smoke).Table() }},
		{"ablationA4", func() string { return seq.AblationA4(1, Smoke).Table() }, func() string { return par.AblationA4(1, Smoke).Table() }},
	}
	for _, c := range checks {
		if s, p := c.seq(), c.parl(); s != p {
			t.Errorf("%s table differs between sequential and parallel runs:\n--- seq\n%s--- par\n%s", c.name, s, p)
		}
	}
}
