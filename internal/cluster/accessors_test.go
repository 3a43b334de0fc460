package cluster

import (
	"errors"
	"testing"

	"persistmem/internal/sim"
)

// TestTopologyAccessors: every CPU shares the cluster's engine and
// fabric, devices get endpoint ids past the CPUs', and a fresh cluster
// is all up until a CPU fails.
func TestTopologyAccessors(t *testing.T) {
	eng, cl := newTestCluster(1)
	defer eng.Shutdown()
	if cl.Engine() != eng || cl.Fabric() == nil {
		t.Fatal("cluster engine/fabric accessors disagree")
	}
	for i := 0; i < cl.NumCPUs(); i++ {
		cpu := cl.CPU(i)
		if cpu.Index() != i || !cpu.Up() {
			t.Errorf("cpu %d: bad index/up", i)
		}
		if cpu.Engine() != eng || cpu.Fabric() != cl.Fabric() {
			t.Errorf("cpu %d: engine/fabric do not alias the cluster's", i)
		}
		if cpu.Endpoint().ID() != 0 && i == 0 {
			t.Errorf("cpu 0 endpoint id = %d", cpu.Endpoint().ID())
		}
	}
	a, b := cl.AttachDevice("dev-a"), cl.AttachDevice("dev-b")
	if a.ID() < 1000 || b.ID() != a.ID()+1 {
		t.Errorf("device endpoint ids %d, %d: want consecutive ids past the CPUs'", a.ID(), b.ID())
	}
	if !cl.AllUp() {
		t.Error("fresh cluster should be all up")
	}
	cl.CPU(2).Fail()
	if cl.AllUp() {
		t.Error("AllUp with CPU 2 failed")
	}
}

// TestProcessAccessors covers the process-side plumbing, including the
// non-blocking and timed inbox receive variants.
func TestProcessAccessors(t *testing.T) {
	eng, cl := newTestCluster(1)
	defer eng.Shutdown()
	var got []interface{}
	srv := cl.CPU(1).Spawn("probe", func(p *Process) {
		if p.Name() != "probe" || p.CPU() != cl.CPU(1) || p.Cluster() != cl {
			t.Error("process accessors disagree")
		}
		if p.Engine() != eng || p.Sim() == nil {
			t.Error("process engine plumbing disagrees")
		}
		if _, ok := p.TryRecv(); ok {
			t.Error("TryRecv on an empty inbox should miss")
		}
		if _, ok := p.RecvTimeout(sim.Millisecond); ok {
			t.Error("RecvTimeout on an empty inbox should time out")
		}
		ev, ok := p.RecvTimeout(sim.Second)
		if !ok {
			t.Error("RecvTimeout missed a sent message")
			return
		}
		ev.Reply("ignored") // one-way: a no-op
		got = append(got, ev.Payload)
		p.Wait(10 * sim.Millisecond)
		if ev, ok := p.TryRecv(); ok {
			got = append(got, ev.Payload)
		}
	})
	cl.Register("probe", srv)
	cl.CPU(0).Spawn("sender", func(p *Process) {
		p.Wait(5 * sim.Millisecond)
		p.Send("probe", 64, 1)
		p.Send("probe", 64, 2)
	})
	eng.Run()
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("received %v, want [1 2]", got)
	}
}

// TestCallAsyncAwaitReply: several requests in flight at once each get
// their own reply, and a request to a server that never answers times
// out through AwaitReply.
func TestCallAsyncAwaitReply(t *testing.T) {
	eng, cl := newTestCluster(1)
	defer eng.Shutdown()
	srv := cl.CPU(1).Spawn("doubler", func(p *Process) {
		for {
			ev := p.Recv()
			ev.Reply(ev.Payload.(int) * 2)
		}
	})
	cl.Register("doubler", srv)
	mute := cl.CPU(2).Spawn("mute", func(p *Process) {
		for {
			p.Recv()
		}
	})
	cl.Register("mute", mute)
	var sum int
	var muteErr error
	cl.CPU(0).Spawn("client", func(p *Process) {
		var sigs []*sim.Signal
		for i := 1; i <= 3; i++ {
			sig, err := p.CallAsync("doubler", 64, i)
			if err != nil {
				t.Errorf("CallAsync %d: %v", i, err)
				return
			}
			sigs = append(sigs, sig)
		}
		for _, sig := range sigs {
			v, err := p.AwaitReply(sig)
			if err != nil {
				t.Errorf("AwaitReply: %v", err)
				continue
			}
			sum += v.(int)
		}
		if _, err := p.CallAsync("ghost", 64, 0); !errors.Is(err, ErrNoProcess) {
			t.Errorf("CallAsync to an unbound name: %v, want ErrNoProcess", err)
		}
		sig, err := p.CallAsync("mute", 64, 0)
		if err != nil {
			t.Errorf("CallAsync mute: %v", err)
			return
		}
		_, muteErr = p.AwaitReply(sig)
	})
	eng.Run()
	if sum != 12 {
		t.Errorf("sum of replies = %d, want 12", sum)
	}
	if !errors.Is(muteErr, ErrTimeout) {
		t.Errorf("AwaitReply on a mute server: %v, want ErrTimeout", muteErr)
	}
}

// TestPairAccessorsAndKillPrimary: a software fault in the primary
// leaves the pair unprotected until Rebackup, and WaitDown returns once
// no primary is serving.
func TestPairAccessorsAndKillPrimary(t *testing.T) {
	eng, cl := newTestCluster(1)
	defer eng.Shutdown()
	pair := cl.StartPair("svc", 0, 1, func(ctx *PairCtx) {
		for {
			ev := ctx.Recv()
			ev.Reply(nil)
		}
	})
	if pair.Name() != "svc" || pair.PrimaryCPU() != 0 || pair.BackupCPU() != 1 {
		t.Fatalf("pair accessors: %s on %d/%d", pair.Name(), pair.PrimaryCPU(), pair.BackupCPU())
	}
	if !pair.Protected() {
		t.Error("fresh pair should be protected")
	}
	var downAt sim.Time
	cl.CPU(2).Spawn("client", func(p *Process) {
		pair.KillPrimary()
		p.Wait(cl.Config().TakeoverDelay + 50*sim.Millisecond)
		if pair.Takeovers != 1 || pair.PrimaryCPU() != 1 {
			t.Errorf("after KillPrimary: %d takeovers, primary on %d", pair.Takeovers, pair.PrimaryCPU())
		}
		if pair.Protected() {
			t.Error("pair still protected after its backup took over")
		}
		pair.Rebackup(2)
		if !pair.Protected() || pair.BackupCPU() != 2 {
			t.Error("Rebackup did not re-protect the pair on CPU 2")
		}
		if _, err := p.Call("svc", 64, nil); err != nil {
			t.Errorf("Call after takeover: %v", err)
		}
		pair.Stop()
		pair.WaitDown(p.Sim(), sim.Millisecond)
		downAt = p.Now()
	})
	eng.Run()
	if downAt == 0 || pair.Up() {
		t.Error("WaitDown did not observe the stopped pair")
	}
}
