// Package bench is the experiment harness: it regenerates every figure in
// the paper's evaluation (Figures 1 and 2) plus measured tables for the
// paper's prose claims (C1 latency, C3 write amplification) and ablations
// (group commit, PM mirroring, fabric latency), and checks the shapes the
// reproduction is required to preserve.
package bench

import (
	"fmt"
	"strings"

	"persistmem/internal/ods"
	"persistmem/internal/sim"
)

// Scale selects run size. The paper's full scale is 32000 records per
// driver; Quick preserves the per-transaction shape at 1/40 size.
type Scale struct {
	Name             string
	RecordsPerDriver int
}

// Predefined scales.
var (
	Full  = Scale{Name: "full", RecordsPerDriver: 32000}
	Quick = Scale{Name: "quick", RecordsPerDriver: 800}
	Smoke = Scale{Name: "smoke", RecordsPerDriver: 160}
)

// txnSizes are the paper's boxcar degrees (inserts per transaction);
// 8→"32k", 16→"64k", 32→"128k".
var txnSizes = []int{8, 16, 32}

// sizeLabel names a boxcar degree the way the paper's x-axis does.
func sizeLabel(inserts int) string { return fmt.Sprintf("%dk", inserts*4) }

// Figure1 reproduces "PM improves response time drastically": response-
// time speedup with PM vs transaction size, one series per driver count.
type Figure1 struct {
	Scale Scale
	// Speedup[si][di] is meanResp(disk)/meanResp(pm) at txnSizes[si],
	// di+1 drivers.
	Speedup [][]float64
	// DiskResp and PMResp hold the underlying mean response times.
	DiskResp, PMResp [][]sim.Time
}

// RunFigure1 executes the Figure 1 sweep (24 hot-stock runs at 4 driver
// counts × 3 sizes × 2 modes) with default parallelism.
func RunFigure1(seed int64, scale Scale) Figure1 {
	return Runner{}.Figure1(seed, scale)
}

// Figure1 executes the Figure 1 sweep with the Runner's parallelism.
// The 24 cells run independently; results land in index-addressed
// slots, so the assembled figure is identical at every parallelism.
func (r Runner) Figure1(seed int64, scale Scale) Figure1 {
	f := Figure1{Scale: scale}
	const drvN, modeN = 4, 2 // 1–4 drivers × {disk, pm}
	specs := make([]cellSpec, len(txnSizes)*drvN*modeN)
	for i := range specs {
		si, di, mode := i/(drvN*modeN), (i/modeN)%drvN, i%modeN
		d := ods.DiskDurability
		if mode == 1 {
			d = ods.PMDurability
		}
		specs[i] = cellSpec{seed: seed, d: d, drivers: di + 1,
			inserts: txnSizes[si], records: scale.RecordsPerDriver}
	}
	cells := r.runCells(specs)
	for si := range txnSizes {
		var speed []float64
		var dr, pr []sim.Time
		for di := 0; di < drvN; di++ {
			dRT := cells[(si*drvN+di)*modeN].MeanResp()
			pRT := cells[(si*drvN+di)*modeN+1].MeanResp()
			dr = append(dr, dRT)
			pr = append(pr, pRT)
			speed = append(speed, float64(dRT)/float64(pRT))
		}
		f.Speedup = append(f.Speedup, speed)
		f.DiskResp = append(f.DiskResp, dr)
		f.PMResp = append(f.PMResp, pr)
	}
	return f
}

// Table renders the figure as the paper's series.
func (f Figure1) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 1: Response time speedup with PM (scale=%s)\n", f.Scale.Name)
	fmt.Fprintf(&b, "%-10s %10s %10s %10s %10s\n", "txn size", "1 driver", "2 drivers", "3 drivers", "4 drivers")
	for si, inserts := range txnSizes {
		fmt.Fprintf(&b, "%-10s", sizeLabel(inserts))
		for di := 0; di < 4; di++ {
			fmt.Fprintf(&b, " %9.2fx", f.Speedup[si][di])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CSV renders the figure for plotting.
func (f Figure1) CSV() string {
	var b strings.Builder
	b.WriteString("txn_size_kb,drivers,speedup,disk_resp_us,pm_resp_us\n")
	for si, inserts := range txnSizes {
		for di := 0; di < 4; di++ {
			fmt.Fprintf(&b, "%d,%d,%.3f,%.1f,%.1f\n",
				inserts*4, di+1, f.Speedup[si][di],
				f.DiskResp[si][di].Micros(), f.PMResp[si][di].Micros())
		}
	}
	return b.String()
}

// CheckShape verifies the properties the paper's Figure 1 exhibits:
// speedup > 1 everywhere; the smallest boxcar shows the largest speedup
// for every driver count; and the peak speedup lands in the 1–2 driver
// series.
func (f Figure1) CheckShape() []error {
	var errs []error
	for si := range txnSizes {
		for di := 0; di < 4; di++ {
			if f.Speedup[si][di] <= 1.0 {
				errs = append(errs, fmt.Errorf(
					"figure1: speedup %.2f <= 1 at size=%s drivers=%d",
					f.Speedup[si][di], sizeLabel(txnSizes[si]), di+1))
			}
		}
	}
	for di := 0; di < 4; di++ {
		if f.Speedup[0][di] < f.Speedup[len(txnSizes)-1][di] {
			errs = append(errs, fmt.Errorf(
				"figure1: speedup at 32k (%.2f) below 128k (%.2f) for %d drivers; should fall with boxcarring",
				f.Speedup[0][di], f.Speedup[len(txnSizes)-1][di], di+1))
		}
	}
	// Peak benefit in the common 1–2 hot-stock case.
	best, bestDrv := 0.0, 0
	for di := 0; di < 4; di++ {
		if f.Speedup[0][di] > best {
			best, bestDrv = f.Speedup[0][di], di+1
		}
	}
	if bestDrv > 2 {
		errs = append(errs, fmt.Errorf(
			"figure1: peak speedup at %d drivers; the paper saw the largest benefit at 1-2", bestDrv))
	}
	return errs
}

// Figure2 reproduces "PM eliminates the need to boxcar": total elapsed
// time vs transaction size for 1–2 drivers, with and without PM.
type Figure2 struct {
	Scale Scale
	// Elapsed[si] holds {1 driver no-PM, 2 drivers no-PM, 1 driver PM,
	// 2 drivers PM} — the paper's four series.
	Elapsed [][4]sim.Time
}

// RunFigure2 executes the Figure 2 sweep with default parallelism.
func RunFigure2(seed int64, scale Scale) Figure2 {
	return Runner{}.Figure2(seed, scale)
}

// Figure2 executes the Figure 2 sweep (12 cells) with the Runner's
// parallelism.
func (r Runner) Figure2(seed int64, scale Scale) Figure2 {
	f := Figure2{Scale: scale}
	// The four series per size: {1drv disk, 2drv disk, 1drv PM, 2drv PM}.
	series := [4]struct {
		d       ods.Durability
		drivers int
	}{
		{ods.DiskDurability, 1}, {ods.DiskDurability, 2},
		{ods.PMDurability, 1}, {ods.PMDurability, 2},
	}
	specs := make([]cellSpec, len(txnSizes)*len(series))
	for i := range specs {
		si, c := i/len(series), i%len(series)
		specs[i] = cellSpec{seed: seed, d: series[c].d, drivers: series[c].drivers,
			inserts: txnSizes[si], records: scale.RecordsPerDriver}
	}
	cells := r.runCells(specs)
	f.Elapsed = make([][4]sim.Time, len(txnSizes))
	for i := range cells {
		f.Elapsed[i/len(series)][i%len(series)] = cells[i].Elapsed
	}
	return f
}

// Table renders the figure as the paper's series.
func (f Figure2) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 2: Elapsed time vs transaction size (scale=%s)\n", f.Scale.Name)
	fmt.Fprintf(&b, "%-10s %14s %14s %14s %14s\n", "txn size",
		"1drv no-PM", "2drv no-PM", "1drv PM", "2drv PM")
	for si, inserts := range txnSizes {
		fmt.Fprintf(&b, "%-10s", sizeLabel(inserts))
		for c := 0; c < 4; c++ {
			fmt.Fprintf(&b, " %13.2fs", f.Elapsed[si][c].Seconds())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CSV renders the figure for plotting.
func (f Figure2) CSV() string {
	var b strings.Builder
	b.WriteString("txn_size_kb,series,elapsed_s\n")
	names := []string{"1drv_nopm", "2drv_nopm", "1drv_pm", "2drv_pm"}
	for si, inserts := range txnSizes {
		for c := 0; c < 4; c++ {
			fmt.Fprintf(&b, "%d,%s,%.4f\n", inserts*4, names[c], f.Elapsed[si][c].Seconds())
		}
	}
	return b.String()
}

// CheckShape verifies Figure 2's properties: no-PM elapsed time rises
// steeply as boxcarring shrinks (throughput "drops off sharply"), PM
// elapsed time is "virtually unaffected", and PM beats no-PM everywhere.
func (f Figure2) CheckShape() []error {
	var errs []error
	last := len(txnSizes) - 1
	for c := 0; c < 2; c++ { // no-PM series
		ratio := float64(f.Elapsed[0][c]) / float64(f.Elapsed[last][c])
		if ratio < 1.5 {
			errs = append(errs, fmt.Errorf(
				"figure2: no-PM series %d elapsed grows only %.2fx from 128k to 32k; should rise sharply", c+1, ratio))
		}
	}
	for c := 2; c < 4; c++ { // PM series
		ratio := float64(f.Elapsed[0][c]) / float64(f.Elapsed[last][c])
		if ratio > 1.6 {
			errs = append(errs, fmt.Errorf(
				"figure2: PM series %d elapsed varies %.2fx across boxcar sizes; should be nearly flat", c-1, ratio))
		}
	}
	for si := range txnSizes {
		for d := 0; d < 2; d++ {
			if f.Elapsed[si][2+d] >= f.Elapsed[si][d] {
				errs = append(errs, fmt.Errorf(
					"figure2: PM not faster than no-PM at size=%s drivers=%d",
					sizeLabel(txnSizes[si]), d+1))
			}
		}
	}
	return errs
}
