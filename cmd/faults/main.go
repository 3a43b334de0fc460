// Command faults sweeps a (durability × fault × phase) matrix of
// deterministic mid-flight fault-injection scenarios and holds each one
// against the paper's §5 claims: no committed transaction lost, no
// in-flight transaction resurrected, takeover within the bound, and
// recovery within the MTTR budget that §1.3's availability class
// implies. Every cell is an independent simulation, so the matrix fans
// out across the bench pool; two runs with the same seed print
// byte-identical tables at any -parallel setting.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"persistmem/internal/avail"
	"persistmem/internal/bench"
	"persistmem/internal/faultinject"
	"persistmem/internal/ods"
	"persistmem/internal/recovery"
	"persistmem/internal/sim"
	"persistmem/internal/tmf"
)

// cell is one matrix entry: a durability mode, a named fault, and the
// commit-count phase at which it strikes.
type cell struct {
	durability ods.Durability
	fault      string
	phase      string
	plan       faultinject.Plan
	// twoPhase runs the workload under the cross-shard outcome-record
	// protocol (every commit prepares on all 4 participant shards).
	twoPhase bool

	// filled by run
	firings   int
	committed int
	txnErrs   int
	resolved  int // in-doubt transactions recovery resolved from an outcome record
	inDoubt   int // in-doubt transactions recovery presumed aborted
	mttr      sim.Time
	bytesRead int64
	fails     []string
}

// phases positions a fault in the commit stream: right after the first
// commit, halfway, and after the last commit (while the final
// transaction is still in flight).
func phases(txns int) []struct {
	name  string
	after int64
} {
	return []struct {
		name  string
		after int64
	}{
		{"early", 1},
		{"mid", int64(txns / 2)},
		{"late", int64(txns)},
	}
}

// planFor builds the fault plan for one named fault at one phase. Every
// fail is paired with a restore so the store must survive the outage
// window, not merely the instant of failure.
func planFor(fault string, after int64) faultinject.Plan {
	at := faultinject.Trigger{AfterCommits: after}
	restore := func(d sim.Time) faultinject.Trigger {
		return faultinject.Trigger{AfterCommits: after, Delay: d}
	}
	switch fault {
	case "none":
		return nil
	case "cpufail":
		// CPU 0 hosts the TMF, PMM and ADP0 primaries: the worst single
		// processor loss the paper's pair design must absorb.
		return faultinject.Plan{
			{Kind: faultinject.CPUFail, Target: 0, When: at},
			{Kind: faultinject.CPURestore, Target: 0, When: restore(300 * sim.Millisecond)},
		}
	case "pathfail":
		return faultinject.Plan{
			{Kind: faultinject.PathFail, Target: 0, When: at},
			{Kind: faultinject.PathRestore, Target: 0, When: restore(200 * sim.Millisecond)},
		}
	case "prockill":
		return faultinject.Plan{
			{Kind: faultinject.ProcessKill, Service: "$TMF", When: at},
		}
	case "diskfail":
		return faultinject.Plan{
			{Kind: faultinject.DataVolumeFail, Target: 0, When: at},
			{Kind: faultinject.DataVolumeRestore, Target: 0, When: restore(200 * sim.Millisecond)},
		}
	case "npmufail":
		return faultinject.Plan{
			{Kind: faultinject.NPMUPowerFail, Target: 0, When: at},
			{Kind: faultinject.NPMURestore, Target: 0, When: restore(200 * sim.Millisecond)},
		}
	}
	panic("unknown fault " + fault)
}

// crossShardCells builds the cross-shard protocol cells for one
// durability mode: a clean two-phase run, then phase-precise kills
// landing inside the prepare window, the in-doubt window (prepares
// durable, outcome not), right after the commit point, and mid-apply.
// The coordinator kills fail CPU 0 — the TMF primary's host, taking the
// in-flight commit coordinator down with it — because killing only the
// serve process would leave the spawned coordinator running. The
// participant kills target one shard's DP2 primary. Every kill strikes
// the seq-th cross-shard commit, so committed work exists on both sides
// of the fault.
func crossShardCells(d ods.Durability, seq int64) []*cell {
	coordKill := func(ph tmf.CommitPhase) faultinject.Plan {
		when := faultinject.Trigger{AtPhase: ph, AtSeq: seq}
		return faultinject.Plan{
			{Kind: faultinject.CPUFail, Target: 0, When: when},
			{Kind: faultinject.CPURestore, Target: 0,
				When: faultinject.Trigger{AtPhase: ph, AtSeq: seq, Delay: 300 * sim.Millisecond}},
		}
	}
	partKill := func(ph tmf.CommitPhase) faultinject.Plan {
		return faultinject.Plan{
			{Kind: faultinject.ProcessKill, Service: "$DP-TRADES-1",
				When: faultinject.Trigger{AtPhase: ph, AtSeq: seq}},
		}
	}
	cells := []*cell{
		{durability: d, fault: "xs-none", phase: "-"},
		{durability: d, fault: "xs-coord", phase: "prep", plan: coordKill(tmf.PhasePrepareStart)},
		{durability: d, fault: "xs-coord", phase: "indoubt", plan: coordKill(tmf.PhasePrepared)},
		{durability: d, fault: "xs-coord", phase: "postout", plan: coordKill(tmf.PhaseOutcomeDurable)},
		{durability: d, fault: "xs-part", phase: "prep", plan: partKill(tmf.PhasePrepareStart)},
		{durability: d, fault: "xs-part", phase: "apply", plan: partKill(tmf.PhaseApplyStart)},
	}
	for _, c := range cells {
		c.twoPhase = true
	}
	return cells
}

func main() {
	var (
		txns     = flag.Int("txns", 12, "transactions attempted before the crash (4 inserts each)")
		seed     = flag.Int64("seed", 1, "simulation seed")
		paceMs   = flag.Int("pace", 20, "milliseconds of think time before each transaction")
		chaos    = flag.Int("chaos", 2, "random chaos plans appended to the matrix (0 disables)")
		parallel = flag.Int("parallel", 0, "cells simulated concurrently (0 = one per CPU, 1 = sequential); output is identical at any setting")
		nines    = flag.Int("nines", 5, "availability class the MTTR budget is derived from")
		mtbfDays = flag.Int("mtbf-days", 30, "assumed mean time between failures, in days")
		violPath = flag.String("violations", "", "write every cell's failed invariants and history-checker violations to this file; an empty file proves the matrix ran clean (the CI artifact gate)")
	)
	flag.Parse()
	pace := sim.Time(*paceMs) * sim.Millisecond
	mtbf := sim.Time(*mtbfDays) * 24 * sim.Time(time.Hour)
	budget := avail.MTTRBudget(mtbf, *nines)

	var cells []*cell
	for _, d := range []ods.Durability{ods.DiskDurability, ods.PMDurability, ods.PMDirectDurability} {
		cells = append(cells, &cell{durability: d, fault: "none", phase: "-"})
		faults := []string{"cpufail", "pathfail", "prockill", "diskfail"}
		if d != ods.DiskDurability {
			faults = append(faults, "npmufail")
		}
		for _, f := range faults {
			for _, ph := range phases(*txns) {
				cells = append(cells, &cell{
					durability: d, fault: f, phase: ph.name,
					plan: planFor(f, ph.after),
				})
			}
		}
		cells = append(cells, crossShardCells(d, int64(*txns/2))...)
	}
	// Chaos cells: plans drawn from the engine's derived rand stream, so
	// the same -seed sweeps the same random faults. The workload CPU is
	// spared (it has no backup), and only one NPMU may fail (losing both
	// mirrors is a full PM outage, which §1.3 counts as a site disaster,
	// not a survivable fault).
	topo := faultinject.Topology{
		CPUs: 4, Paths: 2, NPMUs: 2, DataVolumes: 4,
		Services: []string{"$TMF", "$PM1", "$ADP0", "$ADP1", "$ADP2", "$ADP3",
			"$DP-TRADES-0", "$DP-TRADES-1", "$DP-TRADES-2", "$DP-TRADES-3"},
		SpareCPUs: []int{3},
	}
	horizon := pace * sim.Time(*txns)
	for i := 0; i < *chaos; i++ {
		probe := sim.NewEngine(*seed + int64(i))
		plan := faultinject.RandomPlan(probe.DeriveRand("chaos"), topo, 2, horizon)
		cells = append(cells, &cell{
			durability: ods.PMDurability, fault: fmt.Sprintf("chaos%d", i), phase: "-",
			plan: plan,
		})
	}

	scenario := func(c *cell) faultinject.ScenarioConfig {
		return faultinject.ScenarioConfig{
			Durability: c.durability,
			Txns:       *txns,
			Seed:       *seed,
			Plan:       c.plan,
			Pace:       pace,
			TwoPhase:   c.twoPhase,
		}
	}
	// judge recovers a crashed scenario and grades the cell: the
	// ground-truth durability invariants, the MTTR budget, and the
	// history-based atomicity/serializability checker — every cell runs
	// the checker, not just the cross-shard ones. Each cell writes only
	// its own fields, so verdicts assemble identically at any
	// parallelism.
	judge := func(c *cell, res *faultinject.Result) {
		rep, rb, err := res.Recover(recovery.Options{})
		if err != nil {
			c.fails = append(c.fails, fmt.Sprintf("recovery failed: %v", err))
		} else {
			c.fails = res.Violations(rb)
			for _, hv := range res.CheckHistory(rb).Violations {
				c.fails = append(c.fails, "history: "+hv.String())
			}
			if rep.MTTR > budget {
				c.fails = append(c.fails, fmt.Sprintf("MTTR %v over the %v budget", rep.MTTR, budget))
			}
		}
		c.resolved = rep.OutcomeResolved
		c.inDoubt = rep.InDoubt
		c.firings = len(res.Injector.Firings())
		c.committed = len(res.Committed)
		c.txnErrs = res.TxnErrs
		c.mttr = rep.MTTR
		c.bytesRead = rep.BytesRead
		res.Store.Eng.Shutdown()
	}
	bench.ForEach(*parallel, len(cells), func(i int) { judge(cells[i], faultinject.Run(scenario(cells[i]))) })

	fmt.Printf("fault matrix: %d cells, %d txns/cell, seed %d\n", len(cells), *txns, *seed)
	fmt.Printf("MTTR budget: %v (%d nines at %d-day MTBF)\n\n", budget, *nines, *mtbfDays)
	fmt.Printf("%-9s %-9s %-8s %8s %10s %8s %8s %12s %12s  %s\n",
		"mode", "fault", "phase", "firings", "committed", "txnerrs", "2pc-r/a", "mttr", "bytesread", "verdict")
	failed := 0
	for _, c := range cells {
		verdict := "PASS"
		if len(c.fails) > 0 {
			failed++
			verdict = "FAIL: " + c.fails[0]
			if len(c.fails) > 1 {
				verdict += fmt.Sprintf(" (+%d more)", len(c.fails)-1)
			}
		}
		fmt.Printf("%-9s %-9s %-8s %8d %10d %8d %8s %12v %12d  %s\n",
			c.durability, c.fault, c.phase, c.firings, c.committed, c.txnErrs,
			fmt.Sprintf("%d/%d", c.resolved, c.inDoubt), c.mttr, c.bytesRead, verdict)
	}
	fmt.Printf("\n%d/%d cells passed\n", len(cells)-failed, len(cells))
	if *violPath != "" {
		var b strings.Builder
		for _, c := range cells {
			for _, f := range c.fails {
				fmt.Fprintf(&b, "%s/%s/%s: %s\n", c.durability, c.fault, c.phase, f)
			}
		}
		if err := os.WriteFile(*violPath, []byte(b.String()), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	if failed > 0 {
		os.Exit(1)
	}
}
