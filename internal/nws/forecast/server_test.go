package forecast

import (
	"testing"
	"time"

	"nwsenv/internal/nws/memory"
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
	var res []proto.ForecastResult
	var err error
	sim.Go("test", func() {
		mc := memory.NewClient(cli, "mem")
		for i := 0; i < 30; i++ {
			mc.Store("bw.x.y", proto.Sample{At: time.Duration(i) * time.Second, Value: 42})
		}
		res, err = NewClient(cli, "fc").BatchForecast([]proto.SeriesRequest{{Series: "bw.x.y"}})
	})
	if e := sim.RunUntil(time.Hour); e != nil {
		t.Fatal(e)
	}
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Error != "" || res[0].Value != 42 || res[0].Count != 30 {
		t.Fatalf("forecast %+v", res)
	}
}

func TestServerUnknownSeries(t *testing.T) {
	sim, cli := rig(t)
	var res []proto.ForecastResult
	var err error
	sim.Go("test", func() {
		res, err = NewClient(cli, "fc").BatchForecast([]proto.SeriesRequest{{Series: "nothing"}})
	})
	if e := sim.RunUntil(time.Hour); e != nil {
		t.Fatal(e)
	}
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Error == "" {
		t.Fatalf("expected unknown-series error, got %+v", res)
	}
}

func TestServerHistoryBound(t *testing.T) {
	sim, cli := rig(t)
	var res []proto.ForecastResult
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
		res, err = NewClient(cli, "fc").BatchForecast([]proto.SeriesRequest{{Series: "s", Count: 5}})
	})
	if e := sim.RunUntil(time.Hour); e != nil {
		t.Fatal(e)
	}
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Count != 5 || res[0].Value != 90 {
		t.Fatalf("forecast %+v, want value 90 over 5 samples", res)
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
