package main

import (
	"container/heap"
	"math/rand"
	"runtime"
	"time"
)

// The reference loop is fixed host work of the kinds the simulator does
// most: coroutine hand-offs over unbuffered channels (the engine's
// dispatch baton), an event heap of freshly allocated items, map inserts
// of small byte slices, and a log-like byte stream that is appended to
// and rescanned. It lives in the benchmark, so no change to the program
// changes it. On a shared VM the host's speed drifts by 10–30% over
// minutes, on the simulator and on this loop alike; dividing the
// measured phase's host time by the loop's, timed beside it, cancels
// that drift and leaves what a change to the program moves.

const (
	refHandoffs = 10000
	refEvents   = 75000
	refMapRows  = 20000
	refStreamMB = 3
	// minReference is the least host time spent in the reference loop
	// beside each repetition; a repetition longer than ten times this
	// gets a tenth of its own length.
	minReference = 100 * time.Millisecond
)

// refSink keeps the reference loop's results live.
var refSink int

// referenceRound runs one round of the reference loop.
func referenceRound() {
	refHandoff(refHandoffs)
	refEventHeap(refEvents)
	refMap(refMapRows)
	refStream(refStreamMB)
}

// timeReference runs whole reference rounds for at least d of host time
// and returns the mean host time of one round. It collects the rounds'
// garbage before it returns, so none of it is left for the caller.
func timeReference(d time.Duration) time.Duration {
	runtime.GC()
	start := time.Now()
	n := 0
	for n == 0 || time.Since(start) < d {
		referenceRound()
		n++
	}
	per := time.Since(start) / time.Duration(n)
	runtime.GC()
	return per
}

// refHandoff passes a baton between two goroutines n times each way.
func refHandoff(n int) {
	a, b := make(chan struct{}), make(chan struct{})
	done := make(chan struct{})
	go func() {
		for i := 0; i < n; i++ {
			<-a
			b <- struct{}{}
		}
		close(done)
	}()
	for i := 0; i < n; i++ {
		a <- struct{}{}
		<-b
	}
	<-done
}

type refEvent struct {
	at   int64
	seq  int
	prev *refEvent
}

type refEventQueue []*refEvent

func (q refEventQueue) Len() int           { return len(q) }
func (q refEventQueue) Less(i, j int) bool { return q[i].at < q[j].at }
func (q refEventQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *refEventQueue) Push(x any)        { *q = append(*q, x.(*refEvent)) }
func (q *refEventQueue) Pop() any {
	old := *q
	x := old[len(old)-1]
	*q = old[:len(old)-1]
	return x
}

// refEventHeap pops n events from a heap of 1000 pending ones, scheduling
// a freshly allocated successor for each.
func refEventHeap(n int) {
	rng := rand.New(rand.NewSource(2))
	q := &refEventQueue{}
	for i := 0; i < 1000; i++ {
		heap.Push(q, &refEvent{at: rng.Int63n(1e6), seq: i})
	}
	for i := 0; i < n; i++ {
		ev := heap.Pop(q).(*refEvent)
		heap.Push(q, &refEvent{at: ev.at + rng.Int63n(1e6), seq: i, prev: ev})
	}
	refSink += q.Len()
}

// refMap inserts n row bodies of 32–255 bytes under random keys.
func refMap(n int) {
	rng := rand.New(rand.NewSource(1))
	m := make(map[uint64][]byte)
	for i := 0; i < n; i++ {
		m[rng.Uint64()] = make([]byte, 32+rng.Intn(224))
	}
	refSink += len(m)
}

// refStream appends mb MiB in 64 KiB chunks, rescanning the whole stream
// after each chunk.
func refStream(mb int) {
	const chunk = 64 << 10
	var data []byte
	for off := 0; off < mb<<20; off += chunk {
		buf := make([]byte, chunk)
		for i := 0; i < len(buf); i += 512 {
			buf[i] = byte(i)
		}
		data = append(data, buf...)
		sum := 0
		for i := 0; i < len(data); i += 64 {
			sum += int(data[i])
		}
		refSink += sum
	}
}
