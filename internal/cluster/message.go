package cluster

import (
	"fmt"

	"persistmem/internal/servernet"
	"persistmem/internal/sim"
)

// Envelope is what a registered process receives in its Inbox for
// messages sent through the message system. Inboxes carry *Envelope
// boxes drawn from the cluster's free list; the receive helpers copy the
// envelope out and recycle the box, so user code only ever sees values.
type Envelope struct {
	// From is the sending process's name.
	From string
	// Payload is the message body. Size accounting happened on the wire;
	// the simulation passes the value itself.
	Payload interface{}
	// reply, if non-nil, receives the reply for Call-style requests.
	reply *sim.Signal
}

// Reply answers a Call with value v; for one-way sends it is a no-op.
// Replying twice to the same envelope panics (a server bug).
//
//simlint:hotpath
func (ev *Envelope) Reply(v interface{}) {
	if ev.reply == nil {
		return
	}
	ev.reply.Trigger(v)
}

// WantsReply reports whether the sender is blocked in Call.
func (ev *Envelope) WantsReply() bool { return ev.reply != nil }

// Send delivers a one-way message of wire size sz to the process
// registered under name. It returns ErrNoProcess if the name is unbound
// and propagates fabric errors.
func (p *Process) Send(name string, sz int, payload interface{}) error {
	return p.send(name, sz, payload, nil)
}

//simlint:hotpath
func (p *Process) send(name string, sz int, payload interface{}, reply *sim.Signal) error {
	cl := p.cpu.cl
	r, ok := cl.lookup(name)
	if !ok {
		return ErrNoProcess
	}
	// Message-system software cost on the sending CPU.
	p.Compute(cl.cfg.MsgSystemOverhead)
	ev := p.cpu.newEnvelope()
	ev.From = p.name
	ev.Payload = payload
	ev.reply = reply
	if r.cpu == p.cpu {
		// Intra-CPU message: no fabric traversal.
		r.inbox.Send(p.proc, ev) //simlint:allow hotalloc -- *Envelope into interface{} is pointer-shaped: no box is allocated
		return nil
	}
	frame := p.cpu.newFrame()
	frame.dst = r.inbox
	frame.ev = ev
	if err := p.cpu.fab.Send(p.proc, p.cpu.ep.ID(), r.cpu.ep.ID(), sz, frame); err != nil { //simlint:allow hotalloc -- *routedFrame is pointer-shaped: no box is allocated
		// The frame never reached the destination inbox; reclaim the boxes.
		p.cpu.freeFrame(frame)
		p.cpu.freeEnvelope(ev)
		return err
	}
	return nil
}

// routedFrame is the wire format of a message-system frame: the envelope
// plus the destination inbox resolved at send time.
type routedFrame struct {
	dst *sim.Chan
	ev  *Envelope //simlint:boxowner -- the in-flight frame owns the envelope until delivery
}

// Call sends a request and blocks until the reply arrives or the cluster
// call timeout expires.
//
//simlint:hotpath
func (p *Process) Call(name string, sz int, payload interface{}) (interface{}, error) {
	cl := p.cpu.cl
	reply := p.cpu.eng.NewSignal()
	if err := p.send(name, sz, payload, reply); err != nil {
		p.cpu.eng.FreeSignal(reply)
		return nil, err
	}
	v, ok := reply.WaitTimeout(p.proc, cl.cfg.CallTimeout)
	if !ok {
		// The server may still hold the envelope and trigger a late reply;
		// the signal cannot be recycled.
		return nil, ErrTimeout
	}
	p.cpu.eng.FreeSignal(reply)
	return v, nil
}

// CallAsync sends a request and returns a signal that fires with the
// reply, letting a process issue several requests concurrently (the
// paper's "asynchronous inserts") and collect completions later.
//
//simlint:hotpath
func (p *Process) CallAsync(name string, sz int, payload interface{}) (*sim.Signal, error) {
	reply := p.cpu.eng.NewSignal()
	if err := p.send(name, sz, payload, reply); err != nil {
		p.cpu.eng.FreeSignal(reply)
		return nil, err
	}
	return reply, nil
}

// AwaitReply blocks on a CallAsync signal with the cluster call timeout.
// On success the signal is recycled; the caller must not reuse it.
//
//simlint:hotpath
func (p *Process) AwaitReply(reply *sim.Signal) (interface{}, error) {
	v, ok := reply.WaitTimeout(p.proc, p.cpu.cl.cfg.CallTimeout)
	if !ok {
		return nil, ErrTimeout
	}
	p.cpu.eng.FreeSignal(reply)
	return v, nil
}

// Recv blocks until the next envelope arrives in the process inbox.
//
//simlint:hotpath
func (p *Process) Recv() Envelope {
	box := p.Inbox.Recv(p.proc).(*Envelope)
	ev := *box
	p.cpu.freeEnvelope(box)
	return ev
}

// RecvTimeout blocks for at most d; ok is false on timeout.
func (p *Process) RecvTimeout(d sim.Time) (Envelope, bool) {
	v, ok := p.Inbox.RecvTimeout(p.proc, d)
	if !ok {
		return Envelope{}, false
	}
	box := v.(*Envelope)
	ev := *box
	p.cpu.freeEnvelope(box)
	return ev, true
}

// TryRecv returns the next envelope without blocking; ok is false if the
// inbox is empty.
//
//simlint:hotpath
func (p *Process) TryRecv() (Envelope, bool) {
	v, ok := p.Inbox.TryRecv()
	if !ok {
		return Envelope{}, false
	}
	box := v.(*Envelope)
	ev := *box
	p.cpu.freeEnvelope(box)
	return ev, true
}

// startDispatcher runs the CPU's message-system delivery loop: it moves
// fabric frames arriving at the CPU endpoint into destination process
// inboxes. Each live CPU runs exactly one dispatcher; CPU.Restore starts
// a fresh one. Message and frame boxes go back to the fabric's and the
// cluster's pools.
func (c *CPU) startDispatcher() {
	c.Spawn(fmt.Sprintf("cpu%d-msgsys", c.index), func(p *Process) {
		for {
			m := c.ep.Inbox.Recv(p.proc).(*servernet.Message)
			payload := m.Payload
			c.fab.FreeMessage(m)
			if frame, ok := payload.(*routedFrame); ok {
				dst, ev := frame.dst, frame.ev
				c.freeFrame(frame)
				dst.Send(p.proc, ev)
			}
		}
	})
}
