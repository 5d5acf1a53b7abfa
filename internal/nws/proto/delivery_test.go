package proto

import (
	"errors"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"nwsenv/internal/simnet"
	"nwsenv/internal/vclock"
)

// deliveryPlanes runs body once per transport, over hosts "a", "b" and
// "c". Under the simulator body is a process and virtual time advances
// until it returns; on TCP it runs on the test's goroutine.
var deliveryPlanes = []struct {
	name string
	run  func(t *testing.T, body func(tr Transport))
}{
	{"sim", func(t *testing.T, body func(tr Transport)) {
		topo := simnet.NewTopology()
		topo.AddRouter("r", "10.0.0.254", "r")
		for i, h := range []string{"a", "b", "c"} {
			topo.AddHost(h, "10.0.0."+string(rune('1'+i)), h, "x")
			topo.Connect(h, "r", simnet.LinkLatency(time.Millisecond))
		}
		sim := vclock.New()
		tr := NewSimTransport(simnet.NewNetwork(sim, topo))
		done := false
		sim.Go("delivery", func() { body(tr); done = true })
		for at := time.Second; !done; at += time.Second {
			if at > time.Hour {
				t.Fatal("case still running after a virtual hour")
			}
			if err := sim.RunUntil(at); err != nil {
				t.Fatal(err)
			}
		}
	}},
	{"tcp", func(t *testing.T, body func(tr Transport)) { body(NewTCPTransport()) }},
}

// station opens host on tr; the test's cleanup closes it.
func station(t *testing.T, tr Transport, host string) *Station {
	t.Helper()
	ep, err := tr.Open(host)
	if err != nil {
		t.Fatal(err)
	}
	st := NewStation(tr.Runtime(), ep)
	t.Cleanup(func() { st.Close() })
	return st
}

// replyAfter serves st on a process of its own: each request is answered
// with a pong carrying the request's Count, after delay.
func replyAfter(st *Station, delay time.Duration) {
	st.Runtime().Go("replier", func() {
		for {
			req, ok := st.Recv()
			if !ok {
				return
			}
			st.Runtime().Sleep(delay)
			st.Reply(req, Message{Type: MsgPong, Count: req.Count})
		}
	})
}

// deliverySemantics is what a Station guarantees on either transport now
// that a message is routed where it lands. Cases report with t.Errorf:
// under the simulator the body is a process.
var deliverySemantics = []struct {
	name    string
	tcpOnly bool
	body    func(t *testing.T, tr Transport)
}{
	{name: "a reply reaches its caller", body: func(t *testing.T, tr Transport) {
		a, b := station(t, tr, "a"), station(t, tr, "b")
		replyAfter(b, 0)
		got, err := a.Call("b", Message{Type: MsgPing, Count: 7}, 5*time.Second)
		if err != nil || got.Type != MsgPong || got.Count != 7 || got.From != "b" {
			t.Errorf("reply %+v err %v", got, err)
		}
	}},
	{name: "a request reaches Recv", body: func(t *testing.T, tr Transport) {
		a, b := station(t, tr, "a"), station(t, tr, "b")
		if err := a.Send("b", Message{Type: MsgPing, Count: 7}); err != nil {
			t.Errorf("send: %v", err)
			return
		}
		got, ok := b.RecvTimeout(5 * time.Second)
		if !ok || got.Count != 7 || got.From != "a" || got.ID == 0 {
			t.Errorf("received %+v ok=%v", got, ok)
		}
	}},
	{name: "a late reply after a timeout is dropped", body: func(t *testing.T, tr Transport) {
		a, b := station(t, tr, "a"), station(t, tr, "b")
		replyAfter(b, 200*time.Millisecond)
		if _, err := a.Call("b", Message{Type: MsgPing, Count: 1}, 50*time.Millisecond); err == nil || !strings.Contains(err.Error(), "timed out") {
			t.Errorf("first call: err %v, want a timeout", err)
			return
		}
		// The first reply lands while this call waits: it must not answer it.
		got, err := a.Call("b", Message{Type: MsgPing, Count: 2}, 5*time.Second)
		if err != nil || got.Count != 2 {
			t.Errorf("second call got %+v err %v, want its own reply", got, err)
		}
		if m, ok := a.RecvTimeout(50 * time.Millisecond); ok {
			t.Errorf("the late reply reached Recv: %+v", m)
		}
	}},
	{name: "a reply that races Station.Close is dropped", body: func(t *testing.T, tr Transport) {
		a, b := station(t, tr, "a"), station(t, tr, "b")
		replyAfter(b, 40*time.Millisecond)
		a.Runtime().Go("closer", func() {
			a.Runtime().Sleep(20 * time.Millisecond)
			a.Close()
		})
		if _, err := a.Call("b", Message{Type: MsgPing}, 5*time.Second); !errors.Is(err, ErrClosed) {
			t.Errorf("call through a closing station: err %v, want ErrClosed", err)
		}
		a.deliver(&Message{Type: MsgPong, ReplyTo: 1}) // the reply, landing after Close
		a.Runtime().Sleep(60 * time.Millisecond)
		if m, ok := a.Recv(); ok {
			t.Errorf("closed station delivered %+v", m)
		}
	}},
	{name: "a scatter with one silent target times that target out at the shared deadline", body: func(t *testing.T, tr Transport) {
		a, b := station(t, tr, "a"), station(t, tr, "b")
		station(t, tr, "c") // open, never answers
		replyAfter(b, 0)
		rt := a.Runtime()
		const timeout = 300 * time.Millisecond
		start := rt.Now()
		var order []string
		a.CallMany([]Request{
			{To: "c", Msg: Message{Type: MsgPing, Count: 1}},
			{To: "b", Msg: Message{Type: MsgPing, Count: 2}},
		}, timeout, func(i int, reply *Message, err error) {
			at := rt.Now() - start
			switch i {
			case 0:
				order = append(order, "c")
				if err == nil || !strings.Contains(err.Error(), "timed out") || at < timeout {
					t.Errorf("silent target: err %v after %v, want a timeout at %v", err, at, timeout)
				}
			case 1:
				order = append(order, "b")
				if err != nil || reply.Count != 2 || at >= timeout {
					t.Errorf("answering target: %+v err %v after %v", reply, err, at)
				}
			}
		})
		if strings.Join(order, ",") != "b,c" {
			t.Errorf("outcomes in order %v, want b then c", order)
		}
	}},
	{name: "a scatter where Send fails for one target", body: func(t *testing.T, tr Transport) {
		a, b := station(t, tr, "a"), station(t, tr, "b")
		replyAfter(b, 0)
		got := map[int]error{}
		a.CallMany([]Request{
			{To: "nowhere", Msg: Message{Type: MsgPing}},
			{To: "b", Msg: Message{Type: MsgPing, Count: 2}},
		}, 5*time.Second, func(i int, reply *Message, err error) {
			got[i] = err
			if i == 1 && (reply == nil || reply.Count != 2) {
				t.Errorf("answering target: %+v", reply)
			}
		})
		if len(got) != 2 || got[0] == nil || strings.Contains(got[0].Error(), "timed out") || got[1] != nil {
			t.Errorf("outcomes %v, want a send error and a reply", got)
		}
		// The failed send released its pending entry: the box was recycled
		// and the next call is answered by its own reply.
		if r, err := a.Call("b", Message{Type: MsgPing, Count: 3}, 5*time.Second); err != nil || r.Count != 3 {
			t.Errorf("follow-up call %+v err %v", r, err)
		}
	}},
	{name: "Wait lasts its duration while open and ends at once on Close", body: func(t *testing.T, tr Transport) {
		a := station(t, tr, "a")
		rt := a.Runtime()
		if t0 := rt.Now(); !a.Wait(20*time.Millisecond) || rt.Now()-t0 < 20*time.Millisecond {
			t.Errorf("Wait on an open station returned after %v, want true after 20ms", rt.Now()-t0)
		}
		rt.Go("closer", func() {
			rt.Sleep(10 * time.Millisecond)
			a.Close()
		})
		t0 := rt.Now()
		if a.Wait(time.Hour) {
			t.Error("Wait reported a closed station open")
		}
		if d := rt.Now() - t0; d > time.Second {
			t.Errorf("Wait outlived Close by %v", d)
		}
		if a.Wait(time.Hour) {
			t.Error("Wait on a closed station reported it open")
		}
	}},
	{name: "a TCP peer that dials right after Open is not lost", tcpOnly: true, body: func(t *testing.T, tr Transport) {
		a := station(t, tr, "a")
		ep, err := tr.Open("b")
		if err != nil {
			t.Fatal(err)
		}
		sent := make(chan error, 1)
		go func() { sent <- a.Send("b", Message{Type: MsgPing, Count: 9}) }()
		time.Sleep(50 * time.Millisecond) // the dial waits in b's listen backlog
		b := NewStation(tr.Runtime(), ep)
		t.Cleanup(func() { b.Close() })
		if err := <-sent; err != nil {
			t.Fatalf("send: %v", err)
		}
		if got, ok := b.RecvTimeout(5 * time.Second); !ok || got.Count != 9 {
			t.Errorf("received %+v ok=%v", got, ok)
		}
	}},
}

func TestDeliverySemantics(t *testing.T) {
	for _, plane := range deliveryPlanes {
		for _, c := range deliverySemantics {
			if c.tcpOnly && plane.name != "tcp" {
				continue
			}
			t.Run(plane.name+"/"+c.name, func(t *testing.T) {
				plane.run(t, func(tr Transport) { c.body(t, tr) })
			})
		}
	}
}

// TestBareStationCostsNoProcess: a station routes where a message lands,
// so opening one spawns nothing, and neither does a call through it.
func TestBareStationCostsNoProcess(t *testing.T) {
	sim, tr := pair(t)
	var st [2]*Station
	for i, h := range []string{"a", "b"} {
		ep, err := tr.Open(h)
		if err != nil {
			t.Fatal(err)
		}
		st[i] = NewStation(tr.Runtime(), ep)
	}
	if n := sim.Processes(); n != 0 {
		t.Fatalf("two bare stations cost %d processes, want 0", n)
	}
	st[0].Send("b", Message{Type: MsgPing})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if _, ok := st[1].app.TryRecv(); !ok {
		t.Fatal("message not delivered")
	}
}

// TestHostileLengthPrefixAllocatesWhatArrives: a peer that sends the
// hello, a frame header claiming almost MaxFrameSize and then hangs up
// costs what it sent, not what it claimed.
func TestHostileLengthPrefixAllocatesWhatArrives(t *testing.T) {
	tr := NewTCPTransport()
	ep, err := tr.Open("srv")
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	tap(tr.Runtime(), ep)
	e := ep.(*tcpEndpoint)

	client, server := net.Pipe()
	go io.Copy(io.Discard, client)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	done := make(chan struct{})
	go func() {
		defer close(done)
		e.serveConn(server)
	}()
	client.Write([]byte(wireHello + hostileHeader))
	client.Close()
	<-done
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("a %d-byte length prefix and a hang-up allocated %d bytes", MaxFrameSize-1, got)
	}
}

// hostileHeader is a frame header claiming MaxFrameSize-1 payload bytes.
const hostileHeader = "\xff\xff\xff\x03"

// faultPlane is the network of the fault table: a and b are joined by a
// short path through r1 (2 ms) and a long one through r2 (10 ms). Every
// arrival at an open endpoint is recorded with its virtual instant.
type faultPlane struct {
	sim    *vclock.Sim
	net    *simnet.Network
	tr     *SimTransport
	eps    map[string]Endpoint
	landed map[string][]time.Duration
}

// newFaultPlane builds the plane; prepare, when set, puts a fault state
// in place before any exchange resolves a pair.
func newFaultPlane(t *testing.T, prepare func(*simnet.Network)) *faultPlane {
	t.Helper()
	topo := simnet.NewTopology()
	topo.AddRouter("r1", "10.0.0.253", "r1")
	topo.AddRouter("r2", "10.0.0.254", "r2")
	for i, h := range []string{"a", "b"} {
		topo.AddHost(h, "10.0.0."+string(rune('1'+i)), h, "x")
	}
	topo.Connect("a", "r1", simnet.LinkLatency(time.Millisecond))
	topo.Connect("r1", "b", simnet.LinkLatency(time.Millisecond))
	topo.Connect("a", "r2", simnet.LinkLatency(5*time.Millisecond))
	topo.Connect("r2", "b", simnet.LinkLatency(5*time.Millisecond))
	sim := vclock.New()
	f := &faultPlane{sim: sim, net: simnet.NewNetwork(sim, topo), eps: map[string]Endpoint{}, landed: map[string][]time.Duration{}}
	f.tr = NewSimTransport(f.net)
	if prepare != nil {
		prepare(f.net)
	}
	for _, h := range []string{"a", "b"} {
		ep, err := f.tr.Open(h)
		if err != nil {
			t.Fatal(err)
		}
		ep.Handle(func(*Message) { f.landed[h] = append(f.landed[h], sim.Now()) })
		f.eps[h] = ep
	}
	return f
}

// drive runs the clock one virtual second on.
func (f *faultPlane) drive(t *testing.T) {
	t.Helper()
	if err := f.sim.RunUntil(f.sim.Now() + time.Second); err != nil {
		t.Fatal(err)
	}
}

// send sends one message from a to b and drives the clock: the delay it
// landed after, or landed=false.
func (f *faultPlane) send(t *testing.T) (delay time.Duration, landed bool, err error) {
	t.Helper()
	before, at := len(f.landed["b"]), f.sim.Now()
	err = f.eps["a"].Send("b", &Message{Type: MsgPing})
	f.drive(t)
	if len(f.landed["b"]) == before {
		return 0, false, err
	}
	return f.landed["b"][before] - at, true, err
}

// prices is what every pricing entry point charges a→b: a message's
// delay, a ping's round trip, a connect and a 1 MB transfer's data phase.
type prices struct {
	message, ping, connect, transfer time.Duration
}

func (f *faultPlane) prices(t *testing.T) prices {
	t.Helper()
	var p prices
	delay, landed, err := f.send(t)
	if err != nil || !landed {
		t.Fatalf("message a->b: landed=%v err=%v", landed, err)
	}
	p.message = delay
	var probeErr error
	f.sim.Go("probes", func() {
		var st simnet.TransferStats
		if p.ping, probeErr = f.net.Ping("a", "b", 4); probeErr != nil {
			return
		}
		if p.connect, probeErr = f.net.ConnectTime("a", "b"); probeErr != nil {
			return
		}
		st, probeErr = f.net.Transfer("a", "b", 1e6, "")
		p.transfer = st.Duration
	})
	for i := 0; i < 5; i++ {
		f.drive(t)
	}
	if probeErr != nil {
		t.Fatal(probeErr)
	}
	return p
}

// deliveryFaults is what a reused pair resolution must keep of the
// fault semantics: each case first prices a→b, so the faults below land
// on resolved pairs.
var deliveryFaults = []struct {
	name string
	body func(t *testing.T, f *faultPlane)
}{
	{"a message in flight when its destination crashes is dropped", func(t *testing.T, f *faultPlane) {
		f.sim.At(f.sim.Now()+time.Millisecond, func() { f.net.CrashHost("b") })
		if _, landed, err := f.send(t); landed || err != nil {
			t.Errorf("message to a host that crashed in flight: landed=%v err=%v", landed, err)
		}
	}},
	{"a send from a crashed host fails", func(t *testing.T, f *faultPlane) {
		f.net.CrashHost("a")
		if _, landed, err := f.send(t); landed || err == nil {
			t.Errorf("send from a crashed host: landed=%v err=%v", landed, err)
		}
	}},
	{"SetBlocked silences the pair until lifted", func(t *testing.T, f *faultPlane) {
		f.tr.SetBlocked("a", "b", true)
		if _, landed, err := f.send(t); landed || err != nil {
			t.Errorf("blocked pair: landed=%v err=%v", landed, err)
		}
		f.tr.SetBlocked("a", "b", false)
		if _, landed, err := f.send(t); !landed || err != nil {
			t.Errorf("unblocked pair: landed=%v err=%v", landed, err)
		}
	}},
	{"after RestoreHost the pair prices as on a fresh network", func(t *testing.T, f *faultPlane) {
		f.net.CrashHost("b")
		if _, landed, _ := f.send(t); landed {
			t.Error("message to a crashed host landed")
		}
		f.net.RestoreHost("b")
		samePrices(t, f, nil)
	}},
	{"after HealLink the pair prices as on a fresh network", func(t *testing.T, f *faultPlane) {
		f.net.CutLink("r1", "b")
		f.send(t)
		f.net.HealLink("r1", "b")
		samePrices(t, f, nil)
	}},
	{"after a CutLink that forces the long path the pair prices as on a fresh network", func(t *testing.T, f *faultPlane) {
		f.net.CutLink("r1", "b")
		samePrices(t, f, func(n *simnet.Network) { n.CutLink("r1", "b") })
	}},
	{"after SetRoute the pair prices as on a fresh network", func(t *testing.T, f *faultPlane) {
		f.net.Topology().SetRoute("a", "b", []string{"a", "r2", "b"})
		samePrices(t, f, func(n *simnet.Network) { n.Topology().SetRoute("a", "b", []string{"a", "r2", "b"}) })
	}},
	{"after DegradeLink the pair prices as on a fresh network", func(t *testing.T, f *faultPlane) {
		f.net.DegradeLink("r1", "b", 0.25)
		samePrices(t, f, func(n *simnet.Network) { n.DegradeLink("r1", "b", 0.25) })
	}},
}

// samePrices checks that f's resolved pairs price a→b as a network built
// with the fault state prepare puts in place before any exchange.
func samePrices(t *testing.T, f *faultPlane, prepare func(*simnet.Network)) {
	t.Helper()
	got, want := f.prices(t), newFaultPlane(t, prepare).prices(t)
	if got != want {
		t.Errorf("reused resolutions price %+v, a fresh network %+v", got, want)
	}
}

// TestDeliveryFaultSemantics: a host pair is resolved once and reused
// until the platform changes; every fault and repair moves the
// topology's version, so the next exchange sees what a freshly built
// network would.
func TestDeliveryFaultSemantics(t *testing.T) {
	for _, c := range deliveryFaults {
		t.Run(c.name, func(t *testing.T) {
			f := newFaultPlane(t, nil)
			f.prices(t)
			c.body(t, f)
		})
	}
}
