package sim

import (
	"fmt"
	"strings"
	"testing"
)

// TestStepExecutesOneEvent: Step consumes exactly one event per call and
// reports exhaustion.
func TestStepExecutesOneEvent(t *testing.T) {
	e := NewEngine(1)
	n := 0
	e.Schedule(10, func() { n++ })
	e.Schedule(20, func() { n++ })
	if !e.Step() || n != 1 || e.Now() != 10 {
		t.Fatalf("first Step: n=%d now=%v", n, e.Now())
	}
	if !e.Step() || n != 2 || e.Now() != 20 {
		t.Fatalf("second Step: n=%d now=%v", n, e.Now())
	}
	if e.Step() {
		t.Fatal("Step on a drained engine reported an event")
	}
	if e.Pending() != 0 {
		t.Fatal("drained engine still reports a pending event")
	}
}

// TestTraceSink: the trace hook sees process starts and retirements with
// their virtual times, and uninstalling it stops the stream.
func TestTraceSink(t *testing.T) {
	e := NewEngine(42)
	if e.Seed() != 42 {
		t.Fatalf("Seed = %d, want 42", e.Seed())
	}
	var b strings.Builder
	e.SetTrace(func(at Time, format string, args ...interface{}) {
		fmt.Fprintf(&b, "%d: %s\n", at, fmt.Sprintf(format, args...))
	})
	e.Spawn("worker", func(p *Proc) { p.Wait(3) })
	e.Run()
	out := b.String()
	if !strings.Contains(out, "0: start worker") || !strings.Contains(out, "3: retire worker") {
		t.Fatalf("trace missing lifecycle lines:\n%s", out)
	}
	e.SetTrace(nil)
	e.Spawn("quiet", func(p *Proc) {})
	e.Run()
	if got := b.String(); got != out {
		t.Fatalf("disabled trace still wrote: %q", got[len(out):])
	}
}

func TestProcAccessors(t *testing.T) {
	e := NewEngine(1)
	var victim *Proc
	e.Spawn("first", func(p *Proc) {
		if p.Name() != "first" || p.ID() != 1 || p.Engine() != e {
			t.Errorf("accessors: name=%q id=%d", p.Name(), p.ID())
		}
		p.Wait(100)
	})
	e.Spawn("watcher", func(p *Proc) {
		victim = p
		if p.ID() != 2 || p.Killed() {
			t.Errorf("fresh proc: id=%d killed=%v", p.ID(), p.Killed())
		}
		p.Wait(100)
	})
	e.After(10, func() { victim.Kill() })
	e.Run()
	if !victim.Killed() || !victim.Done() {
		t.Errorf("after kill: killed=%v done=%v", victim.Killed(), victim.Done())
	}
}

// TestResourceQueueLen: waiters show up in QueueLen while the unit is held.
func TestResourceQueueLen(t *testing.T) {
	e := NewEngine(1)
	r := e.NewResource("disk", 1)
	e.Spawn("holder", func(p *Proc) { r.Use(p, 100) })
	e.Spawn("waiter", func(p *Proc) { r.Use(p, 100) })
	e.After(50, func() {
		if r.InUse() != 1 || r.QueueLen() != 1 {
			t.Errorf("mid-hold: inUse=%d queued=%d, want 1, 1", r.InUse(), r.QueueLen())
		}
	})
	e.Run()
	if r.InUse() != 0 || r.QueueLen() != 0 {
		t.Errorf("drained: inUse=%d queued=%d", r.InUse(), r.QueueLen())
	}
}

// TestSignalFreeList: FreeSignal recycles the exact object, scrubbed of
// its fired state and value; freeing nil is a no-op.
func TestSignalFreeList(t *testing.T) {
	e := NewEngine(1)
	s := e.NewSignal()
	s.Trigger("payload")
	if !s.Fired() || s.Value() != "payload" {
		t.Fatalf("fired=%v value=%v", s.Fired(), s.Value())
	}
	e.FreeSignal(nil)
	e.FreeSignal(s)
	s2 := e.NewSignal()
	if s2 != s {
		t.Error("NewSignal did not reuse the freed signal")
	}
	if s2.Fired() || s2.Value() != nil {
		t.Errorf("recycled signal not scrubbed: fired=%v value=%v", s2.Fired(), s2.Value())
	}
}

// TestBoundedChanNonBlockingOps: the TrySend/TryRecv edges around a full
// bounded buffer and blocked peers on both sides.
func TestBoundedChanNonBlockingOps(t *testing.T) {
	e := NewEngine(1)
	c := e.NewBoundedChan("pipe", 1)
	if !c.TrySend("a") || c.Len() != 1 {
		t.Fatal("TrySend into an empty bounded chan refused")
	}
	if c.TrySend("b") {
		t.Fatal("TrySend into a full bounded chan accepted")
	}
	var sent, recv bool
	e.Spawn("tx", func(p *Proc) { c.Send(p, "blocked"); sent = true })
	e.After(10, func() {
		// The buffered value pops and the blocked sender's value is
		// admitted in its place.
		if v, ok := c.TryRecv(); !ok || v != "a" {
			t.Errorf("TryRecv = (%v, %v), want (a, true)", v, ok)
		}
	})
	e.After(20, func() {
		if v, ok := c.TryRecv(); !ok || v != "blocked" {
			t.Errorf("TryRecv = (%v, %v), want (blocked, true)", v, ok)
		}
		if _, ok := c.TryRecv(); ok {
			t.Error("TryRecv on an empty chan succeeded")
		}
	})
	// A blocked receiver gets a TrySend value handed over directly.
	e.After(30, func() {
		e.Spawn("rx", func(p *Proc) { recv = c.Recv(p) == "direct" })
	})
	e.After(40, func() {
		if !c.TrySend("direct") {
			t.Error("TrySend to a blocked receiver refused")
		}
	})
	e.Run()
	if !sent || !recv {
		t.Errorf("sent=%v recv=%v, want both true", sent, recv)
	}
	defer func() {
		if recover() == nil {
			t.Error("NewBoundedChan with capacity 0 did not panic")
		}
	}()
	e.NewBoundedChan("bad", 0)
}
