package cluster

import (
	"errors"
	"fmt"

	"persistmem/internal/sim"
)

// ErrPairDown means both halves of a process pair are unavailable.
var ErrPairDown = errors.New("cluster: process pair down")

// PairCtx is the execution context handed to a process-pair service body.
// It embeds the running Process (primary side) and adds checkpointing.
type PairCtx struct {
	*Process
	pair *Pair
	// Restored holds the state from the last checkpoint absorbed by the
	// backup when this incarnation is a takeover; nil on a cold start.
	Restored interface{}
	// Takeover reports whether this incarnation started by takeover.
	Takeover bool
}

// Checkpoint sends state of wire size sz to the backup and waits for its
// acknowledgement — NSK semantics: primaries checkpoint before
// externalizing state changes (§1.3). If the backup is gone the primary
// continues without protection (and the error reports it).
func (ctx *PairCtx) Checkpoint(sz int, state interface{}) error {
	return ctx.pair.checkpoint(ctx, sz, state)
}

// Pair runs a service as an NSK-style process pair: a primary executing
// the service body and a backup absorbing checkpoints, on distinct CPUs.
// When the primary dies (typically because its CPU failed), the backup
// takes over after the configured detection delay, re-registering the
// service name so that message traffic re-routes to it.
type Pair struct {
	cl      *Cluster
	name    string
	svc     func(ctx *PairCtx)
	primCPU int
	backCPU int

	primary *Process
	backup  *Process
	state   interface{} // checkpointed state held by the backup
	absorb  func(cur, delta interface{}) interface{}
	stopped bool
	gen     int // incarnation counter

	// Checkpoints counts checkpoint round trips, for the paper's
	// write-amplification accounting (§3.4).
	Checkpoints int64
	// CheckpointBytes counts checkpointed wire bytes.
	CheckpointBytes int64
	// Takeovers counts successful takeovers.
	Takeovers int
}

// StartPair launches svc as a process pair named name, primary on CPU
// primCPU and backup on backCPU. Each checkpoint replaces the backup's
// held state; use StartPairAbsorb for delta checkpoints.
func (cl *Cluster) StartPair(name string, primCPU, backCPU int, svc func(ctx *PairCtx)) *Pair {
	return cl.StartPairAbsorb(name, primCPU, backCPU, svc,
		func(cur, delta interface{}) interface{} { return delta })
}

// StartPairAbsorb launches a process pair whose backup folds each
// checkpointed delta into its held state with absorb — the NSK pattern
// where the backup applies checkpointed operations to its own memory
// image rather than storing snapshots.
func (cl *Cluster) StartPairAbsorb(name string, primCPU, backCPU int, svc func(ctx *PairCtx), absorb func(cur, delta interface{}) interface{}) *Pair {
	if primCPU == backCPU {
		panic("cluster: process pair requires distinct CPUs")
	}
	pr := &Pair{cl: cl, name: name, svc: svc, primCPU: primCPU, backCPU: backCPU, absorb: absorb}
	pr.startBackup(backCPU)
	pr.startPrimary(primCPU, nil, false)
	return pr
}

// Name returns the service name.
func (pr *Pair) Name() string { return pr.name }

// PrimaryCPU returns the index of the CPU currently running the primary.
func (pr *Pair) PrimaryCPU() int { return pr.primCPU }

// BackupCPU returns the index of the CPU hosting the backup (meaningful
// while Protected; after a takeover it is the old primary's CPU until
// Rebackup moves it). Fault-injection checkers use it to predict where a
// takeover must re-register the service name.
func (pr *Pair) BackupCPU() int { return pr.backCPU }

// Stop shuts the pair down cleanly (no takeover is triggered).
func (pr *Pair) Stop() {
	pr.stopped = true
	pr.cl.Unregister(pr.name)
	if pr.primary != nil {
		pr.primary.Kill()
	}
	if pr.backup != nil {
		pr.backup.Kill()
	}
}

// Up reports whether a primary is currently serving.
func (pr *Pair) Up() bool {
	return pr.primary != nil && !pr.primary.Done()
}

func (pr *Pair) startPrimary(cpu int, restored interface{}, takeover bool) {
	pr.gen++
	gen := pr.gen
	pr.primCPU = cpu
	c := pr.cl.CPU(cpu)
	pname := fmt.Sprintf("%s-p%d", pr.name, gen)
	pr.primary = c.Spawn(pname, func(p *Process) {
		ctx := &PairCtx{Process: p, pair: pr, Restored: restored, Takeover: takeover}
		pr.svc(ctx)
		// Normal completion: the pair retires cleanly.
		if pr.gen == gen && !pr.stopped {
			pr.Stop()
		}
	})
	// Register eagerly so the name is routable the moment the pair exists
	// (and again immediately after a takeover).
	pr.cl.Register(pr.name, pr.primary)
	pr.primary.proc.OnExit(func() {
		if pr.stopped || pr.gen != gen {
			return
		}
		pr.scheduleTakeover()
	})
}

// startBackup spawns the checkpoint absorber.
func (pr *Pair) startBackup(cpu int) {
	pr.backCPU = cpu
	c := pr.cl.CPU(cpu)
	bname := fmt.Sprintf("%s-b%d", pr.name, pr.gen+1)
	pr.backup = c.Spawn(bname, func(p *Process) {
		for {
			ev := p.Recv()
			pr.state = pr.absorb(pr.state, ev.Payload)
			ev.Reply(nil)
		}
	})
	pr.cl.Register(pr.name+".bak", pr.backup)
}

// checkpoint implements PairCtx.Checkpoint.
func (pr *Pair) checkpoint(ctx *PairCtx, sz int, state interface{}) error {
	return pr.CheckpointFrom(ctx.Process, sz, state)
}

// CheckpointFrom checkpoints a delta to the backup using an arbitrary
// process p as the sender — for continuation processes a primary spawns
// to handle requests concurrently (commit coordinators, lock waiters).
// With no live backup (after a takeover and before Rebackup) the primary
// runs unprotected and the checkpoint is a successful no-op, matching NSK
// behavior; callers can observe the protection level via Protected.
func (pr *Pair) CheckpointFrom(p *Process, sz int, delta interface{}) error {
	if pr.backup == nil || pr.backup.Done() {
		// Keep the shadow state current for a later Rebackup.
		pr.state = pr.absorb(pr.state, delta)
		return nil
	}
	if _, err := p.Call(pr.name+".bak", sz, delta); err != nil {
		return err
	}
	pr.Checkpoints++
	pr.CheckpointBytes += int64(sz)
	return nil
}

// scheduleTakeover promotes the backup after the detection delay.
func (pr *Pair) scheduleTakeover() {
	eng := pr.cl.CPU(pr.primCPU).eng
	eng.After(pr.cl.cfg.TakeoverDelay, func() {
		if pr.stopped {
			return
		}
		if pr.backup == nil || pr.backup.Done() || !pr.cl.CPU(pr.backCPU).Up() {
			// Both halves gone: outage. Leave the name unregistered.
			return
		}
		// Promote: the absorber stops absorbing and a new primary starts
		// on the backup CPU with the checkpointed state. NSK would also
		// re-create a backup when a CPU returns; modeled by Rebackup.
		pr.backup.Kill()
		pr.cl.Unregister(pr.name + ".bak")
		pr.backup = nil
		pr.Takeovers++
		pr.startPrimary(pr.backCPU, pr.state, true)
	})
}

// KillPrimary kills just the primary process (a software fault, not a CPU
// failure); the backup takes over after the detection delay.
func (pr *Pair) KillPrimary() {
	if pr.primary != nil {
		pr.primary.Kill()
	}
}

// Protected reports whether a live backup is absorbing checkpoints.
func (pr *Pair) Protected() bool {
	return pr.backup != nil && !pr.backup.Done()
}

// Rebackup creates a fresh backup on the given CPU — the NSK operation of
// re-pairing after a failed CPU is reloaded.
func (pr *Pair) Rebackup(cpu int) {
	if pr.stopped {
		return
	}
	if cpu == pr.primCPU {
		panic("cluster: Rebackup on primary CPU")
	}
	if pr.backup != nil && !pr.backup.Done() {
		pr.backup.Kill()
		pr.cl.Unregister(pr.name + ".bak")
	}
	pr.startBackup(cpu)
}

// WaitDown blocks until the pair has no live primary (for tests that
// orchestrate double failures). Polls at the given granularity.
func (pr *Pair) WaitDown(p *sim.Proc, poll sim.Time) {
	for pr.Up() {
		p.Wait(poll)
	}
}
