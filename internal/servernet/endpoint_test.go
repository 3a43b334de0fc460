package servernet

import (
	"errors"
	"testing"

	"persistmem/internal/metrics"
	"persistmem/internal/sim"
)

// TestFabricAndEndpointAccessors: New fills zero config fields with the
// calibrated defaults, and the endpoint accessors report what was
// configured.
func TestFabricAndEndpointAccessors(t *testing.T) {
	eng := sim.NewEngine(1)
	fab := New(eng, Config{})
	if fab.Engine() != eng {
		t.Error("Engine does not return the fabric's engine")
	}
	cfg := fab.Config()
	if cfg.PacketBytes != 512 || cfg.BytesPerSecond != 125<<20 || cfg.Timeout != 50*sim.Millisecond {
		t.Errorf("zero config not defaulted: %+v", cfg)
	}
	ep := fab.Attach(7, "dev")
	if ep.ID() != 7 || ep.Name() != "dev" || !ep.Up() || fab.Endpoint(7) != ep {
		t.Error("endpoint accessors disagree")
	}
	if fab.Endpoint(8) != nil {
		t.Error("unknown endpoint id resolved")
	}
	ep.MapWindow(0, 64, make(ByteWindow, 64), 0, rwPerm())
	ep.MapWindow(64, 64, make(ByteWindow, 64), 0, rwPerm())
	if ep.Translations() != 2 {
		t.Errorf("Translations = %d, want 2", ep.Translations())
	}
	ep.ClearATT()
	if ep.Translations() != 0 {
		t.Errorf("Translations after ClearATT = %d, want 0", ep.Translations())
	}
	ep.SetServiceLatency(sim.Microsecond)
	defer func() {
		if recover() == nil {
			t.Error("negative service latency accepted")
		}
	}()
	ep.SetServiceLatency(-1)
}

// TestUnattachedEndpointsFail: an operation from or to an endpoint the
// fabric does not hold fails at once with ErrEndpointDown, before any
// virtual time passes.
func TestUnattachedEndpointsFail(t *testing.T) {
	eng, fab, _ := testFabric(t, DefaultConfig(), 0, rwPerm())
	buf := make([]byte, 8)
	eng.Spawn("client", func(p *sim.Proc) {
		for _, c := range []struct {
			name string
			err  error
		}{
			{"send to unknown", fab.Send(p, 1, 99, 64, "x")},
			{"send from unknown", fab.Send(p, 99, 2, 64, "x")},
			{"write to unknown", fab.RDMAWrite(p, 1, 99, 0, buf)},
			{"read from unknown", fab.RDMARead(p, 1, 99, 0, buf)},
			{"write from unknown", fab.RDMAWrite(p, 99, 2, 0, buf)},
		} {
			if !errors.Is(c.err, ErrEndpointDown) {
				t.Errorf("%s: %v, want ErrEndpointDown", c.name, c.err)
			}
		}
		if p.Now() != 0 {
			t.Errorf("failed lookups took %v of virtual time", p.Now())
		}
	})
	eng.Run()
}

// TestMessageBoxesRecycled: a message box the consumer frees is reused
// by the next send, and a send to the sender's own endpoint takes its
// single port once.
func TestMessageBoxesRecycled(t *testing.T) {
	eng := sim.NewEngine(5)
	fab := New(eng, DefaultConfig())
	a := fab.Attach(1, "a")
	fab.Attach(2, "b")
	var boxes []*Message
	eng.Spawn("rx", func(p *sim.Proc) {
		for i := 0; i < 2; i++ {
			m := a.Inbox.Recv(p).(*Message)
			boxes = append(boxes, m)
			fab.FreeMessage(m)
		}
	})
	eng.Spawn("tx", func(p *sim.Proc) {
		if err := fab.Send(p, 2, 1, 64, "first"); err != nil {
			t.Errorf("Send: %v", err)
		}
		p.Wait(sim.Millisecond)
		if err := fab.Send(p, 1, 1, 64, "to self"); err != nil {
			t.Errorf("Send to self: %v", err)
		}
	})
	eng.Run()
	if len(boxes) != 2 || boxes[0] != boxes[1] {
		t.Errorf("second send did not reuse the freed box: %v", boxes)
	}
}

// TestSetMetrics: attached instruments count every completed operation
// and its bytes; detaching with nil stops the counting.
func TestSetMetrics(t *testing.T) {
	eng, fab, _ := testFabric(t, DefaultConfig(), 0, rwPerm())
	reg := metrics.NewRegistry()
	fab.SetMetrics(reg.Net)
	eng.Spawn("client", func(p *sim.Proc) {
		if err := fab.RDMAWrite(p, 1, 2, 0, make([]byte, 100)); err != nil {
			t.Errorf("RDMAWrite: %v", err)
		}
		fab.SetMetrics(nil)
		if err := fab.RDMAWrite(p, 1, 2, 0, make([]byte, 100)); err != nil {
			t.Errorf("RDMAWrite: %v", err)
		}
	})
	eng.Run()
	if reg.Net.Ops.Value() != 1 || reg.Net.Bytes.Value() != 100 {
		t.Errorf("ops %d bytes %d, want 1 and 100", reg.Net.Ops.Value(), reg.Net.Bytes.Value())
	}
}
