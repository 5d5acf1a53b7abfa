package main

import (
	"fmt"
	"sync"
	"time"

	"nwsenv/internal/nws/forecast"
	"nwsenv/internal/nws/gateway"
	"nwsenv/internal/nws/memory"
	"nwsenv/internal/nws/nameserver"
	"nwsenv/internal/nws/proto"
	"nwsenv/internal/telemetry"
)

const (
	nsHost      = "ns"
	fcHost      = "fc"
	gwHost      = "gw"
	memServers  = 4
	loadWorkers = 2 // the box has 2 CPUs: never more than 2 load goroutines
)

// tcpConfig sizes a TCP workload's stack and preloaded data.
type tcpConfig struct {
	series   int  // series preloaded; series i lives on memory server i mod 4
	history  int  // samples preloaded per series
	replicas bool // every memory server replicates to the next one (k=1)
}

// tcpStack is one hand-placed serving stack on loopback TCP: a name
// server, four memory servers, a forecaster and a gateway, each on its
// own station of one in-process TCPTransport.
type tcpStack struct {
	cfg  tcpConfig
	tr   *proto.TCPTransport
	reg  *telemetry.Registry // nil on the untraced pass
	data *seriesSet

	servers  sync.WaitGroup
	mu       sync.Mutex // load goroutines open their own stations
	stations []*proto.Station
}

func memHost(i int) string { return fmt.Sprintf("mem%d", i) }

// open claims a station for host; the stack closes it on teardown.
func (s *tcpStack) open(host string) (*proto.Station, error) {
	ep, err := s.tr.Open(host)
	if err != nil {
		return nil, fmt.Errorf("open %s: %w", host, err)
	}
	st := proto.NewStation(s.tr.Runtime(), ep)
	s.mu.Lock()
	s.stations = append(s.stations, st)
	s.mu.Unlock()
	return st, nil
}

func (s *tcpStack) serve(run func()) {
	s.servers.Add(1)
	go func() {
		defer s.servers.Done()
		run()
	}()
}

// newTCPStack builds the stack and preloads the data. With traced set,
// one registry is wired through every public telemetry hook.
func newTCPStack(cfg tcpConfig, data *seriesSet, traced bool) (*tcpStack, error) {
	s := &tcpStack{cfg: cfg, tr: proto.NewTCPTransport(), data: data}
	if traced {
		s.reg = telemetry.New(s.tr.Runtime().Now)
		s.tr.SetTelemetry(s.reg)
	}
	if err := s.start(); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *tcpStack) start() error {
	st, err := s.open(nsHost)
	if err != nil {
		return err
	}
	s.serve(nameserver.New(st).Run)

	for i := 0; i < memServers; i++ {
		st, err := s.open(memHost(i))
		if err != nil {
			return err
		}
		opts := []memory.Option{memory.WithTelemetry(s.reg)}
		if s.cfg.replicas {
			opts = append(opts, memory.WithReplicas(memHost((i+1)%memServers)))
		}
		s.serve(memory.New(st, nameserver.NewClient(st, nsHost), opts...).Run)
	}

	if st, err = s.open(fcHost); err != nil {
		return err
	}
	fc := forecast.NewServer(st, nameserver.NewClient(st, nsHost), 0)
	if st, err = s.open(gwHost); err != nil {
		return err
	}
	gw := gateway.New(st, nsHost)
	if s.reg != nil {
		fc.SetTelemetry(s.reg)
		gw.SetTelemetry(s.reg)
	}
	s.serve(fc.Run)
	s.serve(gw.Run)

	if err := s.preload(); err != nil {
		return err
	}
	// The stack is up once a client can discover the gateway.
	probe, err := s.open("setup-probe")
	if err != nil {
		return err
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err = gateway.Connect(probe, nsHost); err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("gateway never became discoverable: %w", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// preload stores every series' initial history on its owner, one Store
// per series, from loadWorkers loader stations.
func (s *tcpStack) preload() error {
	errs := make(chan error, loadWorkers)
	for w := 0; w < loadWorkers; w++ {
		st, err := s.open(fmt.Sprintf("loader%d", w))
		if err != nil {
			return err
		}
		go func(w int) {
			clients := memoryClients(st)
			for i := w; i < s.cfg.series; i += loadWorkers {
				if err := clients[i%memServers].Store(s.data.names[i], s.data.window(i, 0, s.cfg.history)...); err != nil {
					errs <- fmt.Errorf("preload %s: %w", s.data.names[i], err)
					return
				}
			}
			errs <- nil
		}(w)
	}
	var first error
	for w := 0; w < loadWorkers; w++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// close tears the stack down and waits for every server loop to return.
func (s *tcpStack) close() {
	for i := len(s.stations) - 1; i >= 0; i-- {
		s.stations[i].Close()
	}
	s.servers.Wait()
}
