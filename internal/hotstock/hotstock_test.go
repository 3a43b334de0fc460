package hotstock

import (
	"testing"

	"persistmem/internal/ods"
	"persistmem/internal/sim"
)

// quickParams is a scaled-down hot-stock shape for tests.
func quickParams(drivers, insertsPerTxn int) Params {
	return Params{
		Drivers:          drivers,
		RecordsPerDriver: insertsPerTxn * 10, // 10 transactions
		InsertsPerTxn:    insertsPerTxn,
		RecordBytes:      4096,
	}
}

func TestRunCompletesAllTransactions(t *testing.T) {
	for _, d := range []ods.Durability{ods.DiskDurability, ods.PMDurability} {
		t.Run(d.String(), func(t *testing.T) {
			opts := ods.DefaultOptions()
			opts.Durability = d
			r := Run(opts, quickParams(2, 8))
			for _, dr := range r.Drivers {
				if dr.Txns != 10 {
					t.Errorf("driver %d committed %d txns, want 10 (errors=%d)", dr.Driver, dr.Txns, dr.Errors)
				}
				if dr.Errors != 0 {
					t.Errorf("driver %d saw %d errors", dr.Driver, dr.Errors)
				}
				if dr.MeanResp <= 0 || dr.P95Resp < dr.MeanResp/2 || dr.MaxResp < dr.P95Resp {
					t.Errorf("driver %d response stats inconsistent: %+v", dr.Driver, dr)
				}
			}
			if r.Elapsed <= 0 {
				t.Error("zero elapsed time")
			}
			if r.Throughput() <= 0 {
				t.Error("zero throughput")
			}
		})
	}
}

func TestPMBeatsDiskAtSmallBoxcar(t *testing.T) {
	// The paper's headline: at 32K transactions PM wins clearly.
	opts := ods.DefaultOptions()
	opts.Durability = ods.DiskDurability
	diskR := Run(opts, quickParams(1, 8))
	opts.Durability = ods.PMDurability
	pmR := Run(opts, quickParams(1, 8))
	if pmR.MeanResp() >= diskR.MeanResp() {
		t.Errorf("PM mean resp %v not better than disk %v", pmR.MeanResp(), diskR.MeanResp())
	}
	speedup := float64(diskR.MeanResp()) / float64(pmR.MeanResp())
	t.Logf("1 driver, 32K txns: disk=%v pm=%v speedup=%.2f", diskR.MeanResp(), pmR.MeanResp(), speedup)
	if speedup < 1.5 {
		t.Errorf("speedup %.2f too small; the storage gap is not being exercised", speedup)
	}
}

func TestDiskDegradesAsBoxcarShrinks(t *testing.T) {
	// Figure 2's left side: smaller boxcars mean more commits for the
	// same data, so disk throughput (records/sec) collapses.
	opts := ods.DefaultOptions()
	recPerSec := func(inserts int) float64 {
		p := Params{Drivers: 1, RecordsPerDriver: 320, InsertsPerTxn: inserts, RecordBytes: 4096}
		r := Run(opts, p)
		return float64(p.RecordsPerDriver) / r.Elapsed.Seconds()
	}
	small := recPerSec(8)
	large := recPerSec(32)
	if small >= large {
		t.Errorf("disk record rate at 32K boxcar (%.0f/s) should be below 128K (%.0f/s)", small, large)
	}
}

func TestPMInsensitiveToBoxcar(t *testing.T) {
	// Figure 2's PM lines: throughput "virtually unaffected" by boxcar.
	opts := ods.DefaultOptions()
	opts.Durability = ods.PMDurability
	recPerSec := func(inserts int) float64 {
		p := Params{Drivers: 1, RecordsPerDriver: 320, InsertsPerTxn: inserts, RecordBytes: 4096}
		r := Run(opts, p)
		return float64(p.RecordsPerDriver) / r.Elapsed.Seconds()
	}
	small := recPerSec(8)
	large := recPerSec(32)
	ratio := large / small
	if ratio > 2.0 {
		t.Errorf("PM record rate varies %.2fx across boxcar sizes; should be nearly flat", ratio)
	}
}

func TestDeterministicResults(t *testing.T) {
	opts := ods.DefaultOptions()
	a := Run(opts, quickParams(2, 8))
	b := Run(opts, quickParams(2, 8))
	if a.Elapsed != b.Elapsed {
		t.Errorf("elapsed differs across identical runs: %v vs %v", a.Elapsed, b.Elapsed)
	}
	for i := range a.Drivers {
		if a.Drivers[i].MeanResp != b.Drivers[i].MeanResp {
			t.Errorf("driver %d mean resp differs: %v vs %v", i,
				a.Drivers[i].MeanResp, b.Drivers[i].MeanResp)
		}
	}
}

func TestValidate(t *testing.T) {
	mustPanic := func(name string, p Params) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		p.Validate(4)
	}
	mustPanic("zero drivers", Params{Drivers: 0, InsertsPerTxn: 8, RecordsPerDriver: 80})
	mustPanic("uneven files", Params{Drivers: 1, InsertsPerTxn: 6, RecordsPerDriver: 60})
	mustPanic("uneven txns", Params{Drivers: 1, InsertsPerTxn: 8, RecordsPerDriver: 81})
}

func TestTxnKB(t *testing.T) {
	p := Params{InsertsPerTxn: 8, RecordBytes: 4096}
	if p.TxnKB() != 32 {
		t.Errorf("TxnKB = %d, want 32", p.TxnKB())
	}
}

func TestResponseTimesMillisecondScaleOnDisk(t *testing.T) {
	opts := ods.DefaultOptions()
	r := Run(opts, quickParams(1, 8))
	if r.MeanResp() < sim.Millisecond {
		t.Errorf("disk response time %v implausibly fast", r.MeanResp())
	}
	if r.MeanResp() > 200*sim.Millisecond {
		t.Errorf("disk response time %v implausibly slow", r.MeanResp())
	}
}

// TestZeroResult: an empty result reports zero response time and
// throughput rather than dividing by zero.
func TestZeroResult(t *testing.T) {
	var r Result
	if r.MeanResp() != 0 || r.Throughput() != 0 {
		t.Errorf("zero result: mean %v, throughput %v", r.MeanResp(), r.Throughput())
	}
}
