package forecast

import (
	"testing"
	"time"

	"nwsenv/internal/nws/memory"
	"nwsenv/internal/nws/predict"
	"nwsenv/internal/nws/proto"
	"nwsenv/internal/vclock"
)

// rig is a simulated stack (see simStack) reduced to its clock and one
// client station.
func rig(t *testing.T) (*vclock.Sim, *proto.Station) {
	t.Helper()
	sim, st := simStack(t, 64)
	return sim, st.cli
}

func TestServerForecastsStoredSeries(t *testing.T) {
	sim, cli := rig(t)
	var pred predict.Prediction
	var err error
	sim.Go("test", func() {
		mc := memory.NewClient(cli, "mem")
		for i := 0; i < 30; i++ {
			mc.Store("bw.x.y", proto.Sample{At: time.Duration(i) * time.Second, Value: 42})
		}
		fc := NewClient(cli, "fc")
		pred, err = fc.Forecast("bw.x.y", 0)
	})
	if e := sim.RunUntil(time.Hour); e != nil {
		t.Fatal(e)
	}
	if err != nil {
		t.Fatal(err)
	}
	if pred.Value != 42 || pred.N != 30 {
		t.Fatalf("prediction %+v", pred)
	}
}

func TestServerUnknownSeries(t *testing.T) {
	sim, cli := rig(t)
	var err error
	sim.Go("test", func() {
		_, err = NewClient(cli, "fc").Forecast("nothing", 0)
	})
	if e := sim.RunUntil(time.Hour); e != nil {
		t.Fatal(e)
	}
	if err == nil {
		t.Fatal("expected unknown-series error")
	}
}

func TestServerHistoryBound(t *testing.T) {
	sim, cli := rig(t)
	var pred predict.Prediction
	var err error
	sim.Go("test", func() {
		mc := memory.NewClient(cli, "mem")
		// 20 old samples at 10, then 5 new at 90: with history 5, the
		// forecast must only see the new level.
		for i := 0; i < 20; i++ {
			mc.Store("s", proto.Sample{At: time.Duration(i) * time.Second, Value: 10})
		}
		for i := 20; i < 25; i++ {
			mc.Store("s", proto.Sample{At: time.Duration(i) * time.Second, Value: 90})
		}
		pred, err = NewClient(cli, "fc").Forecast("s", 5)
	})
	if e := sim.RunUntil(time.Hour); e != nil {
		t.Fatal(e)
	}
	if err != nil {
		t.Fatal(err)
	}
	if pred.N != 5 || pred.Value != 90 {
		t.Fatalf("prediction %+v, want value 90 over 5 samples", pred)
	}
}

func TestServerRejectsWrongMessage(t *testing.T) {
	sim, cli := rig(t)
	var err error
	sim.Go("test", func() {
		_, err = cli.Call("fc", proto.Message{Type: proto.MsgStore, Series: "s"}, 5*time.Second)
	})
	if e := sim.RunUntil(time.Hour); e != nil {
		t.Fatal(e)
	}
	if err == nil {
		t.Fatal("forecaster should reject store messages")
	}
}

func TestServerPing(t *testing.T) {
	sim, cli := rig(t)
	var reply proto.Message
	var err error
	sim.Go("test", func() {
		reply, err = cli.Call("fc", proto.Message{Type: proto.MsgPing}, 5*time.Second)
	})
	if e := sim.RunUntil(time.Hour); e != nil {
		t.Fatal(e)
	}
	if err != nil || reply.Type != proto.MsgPong {
		t.Fatalf("ping: %+v %v", reply, err)
	}
}
