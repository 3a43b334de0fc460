package sim

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
)

// maxTime is the scheduling horizon: the whole Time range is runnable.
const maxTime = Time(math.MaxInt64)

// startEventID marks a wake-shaped event as a process start rather than a
// wake-up (blockID stamps count up from zero and never reach it), so spawns
// need no closure allocation.
const startEventID = ^uint64(0)

// event is a scheduled kernel action. Three shapes share the struct: generic
// callbacks (fn != nil), process starts (p != nil, id == startEventID) and
// process wake-ups (p != nil otherwise), which carry their target and park
// stamp inline so that the hot Wait/wake paths need no closure allocation.
// Events live by value inside the scheduler's buckets; retained slice
// capacity acts as the free-list, so steady-state scheduling and dispatch
// allocate nothing.
type event struct {
	at  Time
	seq uint64 // tie-break: FIFO among same-time events

	// fn is the generic callback (ad-hoc Schedule calls).
	fn func()

	// p/id describe a process start or wake-up: resume p if its park stamp
	// still matches id, delivering (val, ok) to the parked operation.
	// indirect wake-ups re-enqueue behind already-queued same-time events
	// instead of resuming inline (the timeout semantics of the waiter
	// queues).
	p        *Proc
	id       uint64
	val      interface{}
	ok       bool
	indirect bool
}

// TraceFunc receives one line per traced kernel action.
type TraceFunc func(at Time, format string, args ...interface{})

// Engine is the discrete-event simulation kernel. Create one with NewEngine,
// spawn processes with Spawn, and advance virtual time with Run or RunUntil.
//
// Engine is not safe for concurrent use from multiple OS threads; the whole
// point is that simulated concurrency is scheduled deterministically on a
// single thread of control. Distinct Engine instances share no state, so
// independent simulations may run on concurrent OS threads (one engine per
// goroutine), which is what the bench harness's worker pool does.
//
// Scheduling is direct-handoff: the dispatch loop (advance) is a baton that
// migrates across goroutines. A process that parks runs the loop itself, so
// a self-wake (Wait with nothing interleaved) costs zero goroutine switches
// and a cross-process handoff costs one instead of the two a central
// dispatcher pays. Exactly one goroutine is ever runnable, so the schedule
// stays deterministic and data-race-free.
type Engine struct {
	now    Time
	seq    uint64
	q      wheel    // production scheduler: hierarchical timing wheel
	ref    *refHeap // non-nil: tests are running the reference heap instead
	procs  map[*Proc]struct{}
	nprocs uint64
	seed   int64
	trace  TraceFunc
	events uint64 // events dispatched over the engine's lifetime

	// sigfree recycles Signals through NewSignal/FreeSignal so the
	// call/reply hot path stops allocating one per request.
	sigfree []*Signal //simlint:box -- one-shot completion-signal pool

	// cur is the process currently being stepped, if any.
	cur *Proc
	// stopped is set by Stop; Run returns at the next event boundary.
	stopped bool

	// baton returns dispatch control to the run-loop caller when a
	// goroutine holding the loop finds the run is over (queue drained,
	// deadline or event budget reached, or Stop called).
	baton chan struct{}
	// deadline and limit bound the current run: advance dispatches no
	// event beyond the deadline and no more than limit events total.
	deadline Time
	limit    uint64
	// running guards against re-entering Run/RunUntil/Step from inside a
	// dispatched event, which the migrating-loop protocol cannot support.
	running bool
}

// NewEngine returns a fresh engine whose derived random sources are seeded
// from seed. Two engines built with the same seed and the same program
// produce identical schedules.
func NewEngine(seed int64) *Engine {
	return &Engine{
		procs: make(map[*Proc]struct{}),
		seed:  seed,
		baton: make(chan struct{}), //simlint:allow goroutine -- coroutine machinery: loop-to-caller rendezvous
	}
}

// useReferenceHeap switches a fresh engine onto the retained reference
// min-heap scheduler. Differential tests drive identical programs through
// both schedulers; production engines always run the timing wheel.
func (e *Engine) useReferenceHeap() {
	if e.events != 0 || e.q.count != 0 {
		panic("sim: useReferenceHeap on a used engine")
	}
	e.ref = &refHeap{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Seed returns the engine's root seed.
func (e *Engine) Seed() int64 { return e.seed }

// EventsExecuted returns the number of events the engine has dispatched
// since creation — the kernel-work measure benchmarks report ns/event and
// allocs/event against.
func (e *Engine) EventsExecuted() uint64 { return e.events }

// SetTrace installs fn as the kernel trace sink; nil disables tracing.
func (e *Engine) SetTrace(fn TraceFunc) { e.trace = fn }

// tracef forwards one trace line to the sink. Callers on hot paths must
// guard with traceEnabled() so that the varargs slice is never built when
// tracing is off.
func (e *Engine) tracef(format string, args ...interface{}) {
	if e.trace != nil {
		e.trace(e.now, format, args...)
	}
}

// traceEnabled reports whether a trace sink is installed. Check it before
// calling tracef from any per-event path: the check short-circuits the
// interface boxing and slice allocation of building the varargs.
//
//simlint:hotpath
func (e *Engine) traceEnabled() bool { return e.trace != nil }

// DeriveRand returns a deterministic random source unique to name.
// Components should each derive their own source so that adding a new
// consumer of randomness does not perturb the schedules of others.
//
//simlint:seedsource -- the one blessed construction point for rand sources
func (e *Engine) DeriveRand(name string) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", e.seed, name)
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// push hands ev to the active scheduler.
//
//simlint:hotpath
func (e *Engine) push(ev event) {
	if e.ref != nil {
		e.ref.push(ev)
		return
	}
	e.q.insert(ev)
}

// next returns the earliest pending event's time without consuming it
// (the wheel advances its cursor and stages the ready bucket; the heap
// just peeks). ok is false when nothing is pending.
//
//simlint:hotpath
func (e *Engine) next() (Time, bool) {
	if e.ref != nil {
		return e.ref.peek()
	}
	return e.q.nextTime()
}

// pop removes and returns the earliest pending event. Callers must have
// seen next return ok.
//
//simlint:hotpath
func (e *Engine) pop() event {
	if e.ref != nil {
		return e.ref.pop()
	}
	return e.q.popReady()
}

// Schedule runs fn at absolute virtual time at. Scheduling in the past is
// an error in the caller; the kernel clamps it to now to keep time monotone.
//
//simlint:hotpath
func (e *Engine) Schedule(at Time, fn func()) {
	if at < e.now {
		at = e.now
	}
	e.seq++
	e.push(event{at: at, seq: e.seq, fn: fn})
}

// scheduleWake enqueues a process wake-up event without allocating a
// closure — the fast path under Proc.Wait and the waiter queues. If
// indirect is set, the fired event re-enqueues a direct wake behind
// already-queued same-time events (matching the historical two-step
// timeout semantics) instead of resuming the process inline.
//
//simlint:hotpath
func (e *Engine) scheduleWake(at Time, p *Proc, id uint64, val interface{}, ok, indirect bool) {
	if at < e.now {
		at = e.now
	}
	e.seq++
	e.push(event{at: at, seq: e.seq, p: p, id: id, val: val, ok: ok, indirect: indirect})
}

// advance runs the dispatch loop on the calling goroutine — the heart of
// the direct-handoff scheduler. Events pop in exact (at, seq) order and
// execute until the deadline, the event budget, a Stop, or queue
// exhaustion ends the run, or until an event resumes a process other than
// the caller. The return value is where control must go next: self means
// the calling process was woken and simply continues inline (zero
// switches); any other process must be handed the baton; nil means the run
// is over and the baton goes back to the run-loop caller.
//
//simlint:hotpath
func (e *Engine) advance(self *Proc) *Proc {
	e.cur = nil
	for !e.stopped && e.events < e.limit {
		at, ok := e.next()
		if !ok || at > e.deadline {
			break
		}
		ev := e.pop()
		if ev.at > e.now {
			e.now = ev.at
		}
		e.events++
		if ev.fn != nil {
			ev.fn()
			continue
		}
		p := ev.p
		if ev.id == startEventID {
			if !e.startProc(p) {
				continue
			}
			return p
		}
		if p.blockID != ev.id || p.state != procBlocked {
			continue // stale wake-up
		}
		if ev.indirect {
			// Requeue as a direct wake at the current time so the resume
			// lands behind events already queued for this instant.
			e.scheduleWake(e.now, p, ev.id, ev.val, ev.ok, false)
			continue
		}
		p.rxVal, p.rxOK = ev.val, ev.ok
		p.state = procRunning
		e.cur = p
		return p
	}
	return nil
}

// handoff transfers the dispatch baton to process next's goroutine, or
// back to the run-loop caller when next is nil.
//
//simlint:hotpath
func (e *Engine) handoff(next *Proc) {
	if next != nil {
		next.resume <- struct{}{} //simlint:allow goroutine -- coroutine machinery: baton handoff
		return
	}
	e.baton <- struct{}{} //simlint:allow goroutine -- coroutine machinery: baton handoff
}

// runLoop drives one run: it dispatches inline until control must enter a
// process goroutine, hands the baton over, and waits for it to come back
// when the run is over. Re-entry from inside a dispatched event is a
// protocol violation (the nested loop could try to resume the process
// whose goroutine it is borrowing) and panics.
func (e *Engine) runLoop(deadline Time, limit uint64) {
	if e.running {
		panic("sim: Run/RunUntil/Step re-entered from inside a dispatched event")
	}
	e.running = true
	e.stopped = false
	e.deadline = deadline
	e.limit = limit
	for {
		next := e.advance(nil)
		if next == nil {
			break
		}
		next.resume <- struct{}{} //simlint:allow goroutine -- coroutine machinery: baton handoff
		<-e.baton                 //simlint:allow goroutine -- coroutine machinery: baton return
	}
	e.running = false
}

// After runs fn after duration d of virtual time.
func (e *Engine) After(d Time, fn func()) { e.Schedule(e.now+d, fn) }

// Stop makes the current Run call return at the next event boundary.
// Pending events remain queued and a subsequent Run resumes them.
func (e *Engine) Stop() { e.stopped = true }

// Run processes events until the event queue is empty or Stop is called.
// It returns the final virtual time. The whole Time range is runnable:
// the deadline is math.MaxInt64, so events may be scheduled anywhere up
// to the horizon.
func (e *Engine) Run() Time { return e.RunUntil(maxTime) }

// RunUntil processes events with timestamps <= deadline, then returns.
// The clock is left at min(deadline, time of last event) — it never runs
// ahead to the deadline when the queue drains early.
//
//simlint:hotpath
func (e *Engine) RunUntil(deadline Time) Time {
	e.runLoop(deadline, math.MaxUint64)
	return e.now
}

// Step executes exactly one pending event, if any, and reports whether one
// was executed. The event's synchronous continuation runs to its next park,
// exactly as it would under Run. Mostly useful in kernel tests.
func (e *Engine) Step() bool {
	before := e.events
	e.runLoop(maxTime, before+1)
	return e.events > before
}

// Pending reports the number of queued events.
func (e *Engine) Pending() int {
	if e.ref != nil {
		return e.ref.len()
	}
	return e.q.count
}

// LiveProcs returns the number of processes that have been spawned and have
// not yet finished (they may be runnable or blocked).
func (e *Engine) LiveProcs() int { return len(e.procs) }

// liveProcs returns the live set in spawn order. The procs set is a map,
// so anything that iterates it — killing, reporting — must go through this
// to keep event ordering and output independent of map iteration order.
func (e *Engine) liveProcs() []*Proc {
	out := make([]*Proc, 0, len(e.procs))
	//simlint:ordered -- collected into a slice and sorted by spawn id below
	for p := range e.procs {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// BlockedProcs returns the names of live processes that are currently
// parked, in spawn order, for post-mortem debugging of stuck simulations.
func (e *Engine) BlockedProcs() []string {
	var names []string
	for _, p := range e.liveProcs() {
		if p.state == procBlocked {
			names = append(names, p.name)
		}
	}
	return names
}

// Shutdown kills every live process in spawn order and drains their
// unwinding. Kill order is schedule-visible (each kill enqueues a wake-up
// and fires exit hooks), so it must not depend on map iteration order. The
// engine can still be inspected afterwards but should not be reused for
// new work.
func (e *Engine) Shutdown() {
	for _, p := range e.liveProcs() {
		p.Kill()
	}
	// Run only the kill wake-ups; they were scheduled "now".
	e.RunUntil(e.now)
}
