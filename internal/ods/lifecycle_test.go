package ods

import (
	"errors"
	"strings"
	"testing"

	"persistmem/internal/cluster"
)

// TestStoreLifecycle covers the store-level conveniences: the partition
// map answers, the commit hook observes commits, Run drains the engine,
// the event counter is the engine's, and Stop shuts every service pair
// down cleanly.
func TestStoreLifecycle(t *testing.T) {
	for _, d := range []Durability{DiskDurability, PMDurability} {
		t.Run(d.String(), func(t *testing.T) {
			s := Build(smallOptions(d))
			defer s.Shutdown()
			if s.Partitions("TRADES") != 2 || s.Partitions("NOSUCH") != 0 {
				t.Fatalf("Partitions(TRADES) = %d, want 2", s.Partitions("TRADES"))
			}
			var commits int64
			s.SetCommitHook(func(total int64) { commits = total })
			var got []byte
			s.Cl.CPU(3).Spawn("cli", func(p *cluster.Process) {
				se := s.NewSession(p)
				tx, err := se.Begin()
				if err != nil {
					t.Errorf("begin: %v", err)
					return
				}
				if tx.ID() == 0 {
					t.Error("fresh transaction has a zero id")
				}
				if err := tx.Insert("TRADES", 7, []byte("lifecycle-row")); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
				if got, err = tx.Read("TRADES", 7); err != nil {
					t.Errorf("read own insert: %v", err)
				}
				if err := tx.Commit(); err != nil {
					t.Errorf("commit: %v", err)
				}
				if _, err := tx.Read("TRADES", 7); !errors.Is(err, ErrTxnDone) {
					t.Errorf("read after commit: %v, want ErrTxnDone", err)
				}
				if err := tx.Insert("TRADES", 8, nil); !errors.Is(err, ErrTxnDone) {
					t.Errorf("insert after commit: %v, want ErrTxnDone", err)
				}
				if _, err := se.ReadBrowse("NOSUCH", 1); !errors.Is(err, ErrUnknownFile) {
					t.Errorf("browse of an unknown file: %v, want ErrUnknownFile", err)
				}
			})
			s.Run(1)
			if string(got) != "lifecycle-row" {
				t.Errorf("read %q, want the inserted row", got)
			}
			if commits != 1 {
				t.Errorf("commit hook saw %d commits, want 1", commits)
			}
			if s.EventsExecuted() == 0 || s.EventsExecuted() != s.Eng.EventsExecuted() {
				t.Errorf("EventsExecuted = %d, engine %d", s.EventsExecuted(), s.Eng.EventsExecuted())
			}
			s.Stop()
			s.Run(1)
			if s.TMF.Pair().Up() {
				t.Error("TMF pair still up after Stop")
			}
		})
	}
}

// TestBuildRejectsUndersizedNPMU: a PM deployment whose regions cannot
// fit the NPMU is a configuration error reported at build time.
func TestBuildRejectsUndersizedNPMU(t *testing.T) {
	for _, d := range []Durability{PMDurability, PMDirectDurability} {
		opts := smallOptions(d)
		opts.NPMUBytes = 1 << 20
		func() {
			defer func() {
				r := recover()
				if r == nil || !strings.Contains(r.(string), "too small") {
					t.Errorf("%v: recover() = %v, want a too-small panic", d, r)
				}
			}()
			Build(opts)
		}()
	}
}
