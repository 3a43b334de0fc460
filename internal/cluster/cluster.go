// Package cluster simulates the NonStop Kernel (NSK) execution
// environment the paper's prototype runs in (§4): a shared-nothing node
// of processors and I/O devices joined by a ServerNet fabric, where
// processes communicate only by messages, critical services run as
// process pairs with primary-to-backup checkpointing, and the message
// system re-routes traffic to the backup after a takeover.
package cluster

import (
	"errors"
	"fmt"
	"sort"

	"persistmem/internal/servernet"
	"persistmem/internal/sim"
)

// Errors returned by messaging operations.
var (
	// ErrNoProcess means no process is registered under the requested name.
	ErrNoProcess = errors.New("cluster: no such process")
	// ErrTimeout means a call received no reply in time.
	ErrTimeout = errors.New("cluster: call timed out")
	// ErrCPUDown means the operation required a failed processor.
	ErrCPUDown = errors.New("cluster: cpu down")
)

// Config sizes the simulated node.
type Config struct {
	// CPUs is the number of processors (the paper's system: 4, plus a 5th
	// for the PMP in the PM experiments).
	CPUs int
	// Net configures the ServerNet fabric.
	Net servernet.Config
	// MsgSystemOverhead is the per-message software cost of the NSK
	// message system, in addition to fabric time.
	MsgSystemOverhead sim.Time
	// CallTimeout bounds request-reply calls.
	CallTimeout sim.Time
	// TakeoverDelay is the fault-detection plus takeover time for process
	// pairs ("a second or less" in the paper; default 400 ms).
	TakeoverDelay sim.Time
}

// DefaultConfig returns the calibration used across the repository.
func DefaultConfig() Config {
	return Config{
		CPUs:              4,
		Net:               servernet.DefaultConfig(),
		MsgSystemOverhead: 10 * sim.Microsecond,
		CallTimeout:       2 * sim.Second,
		TakeoverDelay:     400 * sim.Millisecond,
	}
}

// Cluster is one simulated NonStop node.
type Cluster struct {
	eng  *sim.Engine
	fab  *servernet.Fabric
	cfg  Config
	cpus []*CPU

	// registry maps service names to their current location; takeover
	// re-points a name at the backup, which is how the simulation models
	// NSK's message re-routing.
	registry map[string]*registration

	nextDevEP servernet.EndpointID
}

// boxPool recycles message-plumbing boxes for all of a cluster's CPUs:
// pointers travel through inbox interfaces without allocating, and the
// single consumer of each box returns it after copying the contents out.
// One engine touches the pool, so plain slices work. The pool is
// cluster-wide on purpose: a box sent by one CPU is freed by another, so
// per-CPU pools would make every cross-CPU message allocate.
type boxPool struct {
	envfree   []*Envelope    //simlint:box -- message-envelope pool
	framefree []*routedFrame //simlint:box -- routed-frame pool
}

// newEnvelope takes an Envelope box from the cluster's pool.
//
//simlint:hotpath
func (c *CPU) newEnvelope() *Envelope {
	if n := len(c.pool.envfree); n > 0 {
		ev := c.pool.envfree[n-1]
		c.pool.envfree[n-1] = nil
		c.pool.envfree = c.pool.envfree[:n-1]
		return ev
	}
	return &Envelope{}
}

// freeEnvelope recycles a consumed Envelope box. The caller asserts it
// copied the contents out and no other reference survives.
//
//simlint:hotpath
func (c *CPU) freeEnvelope(ev *Envelope) {
	*ev = Envelope{}
	c.pool.envfree = append(c.pool.envfree, ev)
}

//simlint:hotpath
func (c *CPU) newFrame() *routedFrame {
	if n := len(c.pool.framefree); n > 0 {
		fr := c.pool.framefree[n-1]
		c.pool.framefree[n-1] = nil
		c.pool.framefree = c.pool.framefree[:n-1]
		return fr
	}
	return &routedFrame{}
}

//simlint:hotpath
func (c *CPU) freeFrame(fr *routedFrame) {
	*fr = routedFrame{}
	c.pool.framefree = append(c.pool.framefree, fr)
}

type registration struct {
	cpu   *CPU
	inbox *sim.Chan
}

// New builds a cluster with cfg.CPUs processors.
func New(eng *sim.Engine, cfg Config) *Cluster {
	if cfg.CPUs <= 0 {
		panic("cluster: need at least one CPU")
	}
	if cfg.CallTimeout <= 0 {
		cfg.CallTimeout = 2 * sim.Second
	}
	cl := &Cluster{
		eng:      eng,
		fab:      servernet.New(eng, cfg.Net),
		cfg:      cfg,
		registry: make(map[string]*registration),
	}
	pool := &boxPool{}
	for i := 0; i < cfg.CPUs; i++ {
		cpu := &CPU{
			cl:    cl,
			index: i,
			eng:   eng,
			fab:   cl.fab,
			ep:    cl.fab.Attach(servernet.EndpointID(i), fmt.Sprintf("cpu%d", i)),
			exec:  eng.NewResource(fmt.Sprintf("cpu%d-exec", i), 1),
			up:    true,
			procs: make(map[*Process]struct{}),
			pool:  pool,
		}
		cl.cpus = append(cl.cpus, cpu)
	}
	cl.nextDevEP = servernet.EndpointID(cfg.CPUs + 1000)
	for _, cpu := range cl.cpus {
		cpu.startDispatcher()
	}
	return cl
}

// Engine returns the simulation engine.
func (cl *Cluster) Engine() *sim.Engine { return cl.eng }

// Fabric returns the ServerNet fabric.
func (cl *Cluster) Fabric() *servernet.Fabric { return cl.fab }

// Config returns the cluster configuration.
func (cl *Cluster) Config() Config { return cl.cfg }

// CPU returns processor i.
func (cl *Cluster) CPU(i int) *CPU { return cl.cpus[i] }

// NumCPUs returns the processor count.
func (cl *Cluster) NumCPUs() int { return len(cl.cpus) }

// AllUp reports whether every CPU is running. Reboot-style recovery code
// uses it to make power restoration idempotent: RestorePower on a node
// that never lost power would wrongly wipe the live service registry.
func (cl *Cluster) AllUp() bool {
	for _, c := range cl.cpus {
		if !c.up {
			return false
		}
	}
	return true
}

// AttachDevice adds an I/O device endpoint (NPMU, adapter) to the fabric.
// Devices are not tied to any CPU: per the paper, they keep functioning
// when their controlling processor fails.
func (cl *Cluster) AttachDevice(name string) *servernet.Endpoint {
	id := cl.nextDevEP
	cl.nextDevEP++
	return cl.fab.Attach(id, name)
}

// Register binds name to a process's inbox, making it reachable via Send
// and Call. Re-registering a name moves it (takeover re-routing).
func (cl *Cluster) Register(name string, proc *Process) {
	cl.registry[name] = &registration{cpu: proc.cpu, inbox: proc.Inbox}
}

// Unregister removes a name binding.
func (cl *Cluster) Unregister(name string) {
	delete(cl.registry, name)
}

// lookup resolves a name in the registry.
//
//simlint:hotpath
func (cl *Cluster) lookup(name string) (*registration, bool) {
	r, ok := cl.registry[name]
	return r, ok
}

// LookupCPU reports which CPU currently hosts the named service, or -1.
func (cl *Cluster) LookupCPU(name string) int {
	if r, ok := cl.lookup(name); ok {
		return r.cpu.index
	}
	return -1
}

// PowerFail simulates losing power to the node: every CPU fails (killing
// its processes and volatile memory) and every device endpoint is taken
// down. Device state durability is decided by each device model: disk
// platters and NPMU non-volatile RAM survive; NIC translation state and
// plain RAM do not.
func (cl *Cluster) PowerFail() {
	for _, c := range cl.cpus {
		if c.up {
			c.Fail()
		}
	}
}

// RestorePower brings all CPUs back up (empty, as after a reboot).
// Registered names are gone; recovery code must restart services.
func (cl *Cluster) RestorePower() {
	cl.registry = make(map[string]*registration)
	for _, c := range cl.cpus {
		c.Restore()
	}
}

// CPU is one processor of the node. A CPU executes processes, which share
// its single execution resource, and owns a fabric endpoint. eng and fab
// alias the cluster's.
type CPU struct {
	cl    *Cluster
	index int
	eng   *sim.Engine
	fab   *servernet.Fabric
	ep    *servernet.Endpoint
	exec  *sim.Resource
	up    bool
	procs map[*Process]struct{}

	// pool is the cluster-wide box pool (see boxPool).
	pool *boxPool

	// Stats
	ComputeTime sim.Time
}

// Index returns the CPU number.
func (c *CPU) Index() int { return c.index }

// Engine returns the engine this CPU's processes run on.
func (c *CPU) Engine() *sim.Engine { return c.eng }

// Fabric returns the fabric this CPU's endpoint is attached to.
func (c *CPU) Fabric() *servernet.Fabric { return c.fab }

// Endpoint returns the CPU's fabric endpoint.
func (c *CPU) Endpoint() *servernet.Endpoint { return c.ep }

// Up reports whether the CPU is running.
func (c *CPU) Up() bool { return c.up }

// Fail halts the CPU: all its processes are killed (their volatile state
// is lost with them), its fabric endpoint stops responding, and names
// registered to it are dropped. Processes die in spawn order — each kill
// enqueues a wake-up, so the kill sequence is schedule-visible and must
// not depend on map iteration order.
func (c *CPU) Fail() {
	if !c.up {
		return
	}
	c.up = false
	c.ep.Fail()
	victims := make([]*Process, 0, len(c.procs))
	//simlint:ordered -- collected into a slice and sorted by spawn id below
	for p := range c.procs {
		victims = append(victims, p)
	}
	sort.Slice(victims, func(i, j int) bool { return victims[i].proc.ID() < victims[j].proc.ID() })
	for _, p := range victims {
		p.proc.Kill()
	}
	//simlint:ordered -- pure deletes; no effect depends on visit order
	for name, r := range c.cl.registry {
		if r.cpu == c {
			delete(c.cl.registry, name)
		}
	}
}

// Restore restarts a failed CPU with no processes (beyond a fresh message
// dispatcher).
func (c *CPU) Restore() {
	if c.up {
		return
	}
	c.up = true
	c.ep.Restore()
	c.startDispatcher()
}

// Process is a simulated OS process bound to a CPU.
type Process struct {
	cpu   *CPU
	name  string
	proc  *sim.Proc
	Inbox *sim.Chan
}

// Spawn starts body as a process named name on this CPU.
func (c *CPU) Spawn(name string, body func(p *Process)) *Process {
	if !c.up {
		panic("cluster: Spawn on failed CPU " + fmt.Sprint(c.index))
	}
	pr := &Process{
		cpu:   c,
		name:  name,
		Inbox: c.eng.NewChan(name + "-inbox"),
	}
	pr.proc = c.eng.Spawn(name, func(sp *sim.Proc) {
		body(pr)
	})
	c.procs[pr] = struct{}{}
	pr.proc.OnExit(func() { delete(c.procs, pr) })
	return pr
}

// Name returns the process name.
func (p *Process) Name() string { return p.name }

// CPU returns the hosting processor.
func (p *Process) CPU() *CPU { return p.cpu }

// Cluster returns the owning cluster.
func (p *Process) Cluster() *Cluster { return p.cpu.cl }

// Sim returns the underlying simulation process, for use with kernel
// primitives (channels, signals).
func (p *Process) Sim() *sim.Proc { return p.proc }

// Engine returns the engine the process runs on (its CPU's engine).
func (p *Process) Engine() *sim.Engine { return p.cpu.eng }

// Now returns the current virtual time on the process's engine.
func (p *Process) Now() sim.Time { return p.cpu.eng.Now() }

// Kill terminates the process.
func (p *Process) Kill() { p.proc.Kill() }

// Done reports whether the process has exited.
func (p *Process) Done() bool { return p.proc.Done() }

// Compute occupies the CPU for duration d of work, queueing behind other
// processes on the same processor. The release is deferred so that a
// process killed mid-computation (a CPU failure unwinding it) does not
// leak the execution resource and wedge every other process on the CPU.
func (p *Process) Compute(d sim.Time) {
	p.cpu.exec.Acquire(p.proc)
	defer p.cpu.exec.Release()
	p.proc.Wait(d)
	p.cpu.ComputeTime += d
}

// Wait suspends the process without using CPU (e.g. waiting on I/O).
func (p *Process) Wait(d sim.Time) { p.proc.Wait(d) }
