package simnet

import (
	"fmt"
	"testing"

	"nwsenv/internal/vclock"
)

// benchLAN builds a 3-subnet LAN for throughput benchmarks.
func benchLAN(b *testing.B) (*vclock.Sim, *Network, []string) {
	b.Helper()
	topo := NewTopology()
	topo.AddRouter("root", "10.255.0.254", "root")
	var hosts []string
	for s := 0; s < 3; s++ {
		seg := fmt.Sprintf("seg%d", s)
		r := fmt.Sprintf("r%d", s)
		topo.AddRouter(r, fmt.Sprintf("10.%d.0.254", s), r)
		topo.Connect(r, "root")
		topo.AddSwitch(seg)
		topo.Connect(seg, r)
		for h := 0; h < 4; h++ {
			id := fmt.Sprintf("h%d-%d", s, h)
			topo.AddHost(id, id, id, "lan")
			topo.Connect(id, seg)
			hosts = append(hosts, id)
		}
	}
	sim := vclock.New()
	return sim, NewNetwork(sim, topo), hosts
}

// BenchmarkSequentialTransfers measures the event machinery cost per
// completed transfer.
func BenchmarkSequentialTransfers(b *testing.B) {
	sim, net, hosts := benchLAN(b)
	sim.Go("bench", func() {
		for i := 0; i < b.N; i++ {
			src := hosts[i%len(hosts)]
			dst := hosts[(i+5)%len(hosts)]
			net.Transfer(src, dst, 64*1024, "")
		}
	})
	b.ResetTimer()
	if err := sim.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkConcurrentFlows measures max-min recomputation with 12
// simultaneously active flows churning.
func BenchmarkConcurrentFlows(b *testing.B) {
	sim, net, hosts := benchLAN(b)
	for k := 0; k < len(hosts); k++ {
		k := k
		sim.Go("flow", func() {
			for i := 0; i < b.N; i++ {
				net.Transfer(hosts[k], hosts[(k+7)%len(hosts)], 256*1024, "")
			}
		})
	}
	b.ResetTimer()
	if err := sim.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkRouting measures the per-path Dijkstra + cache cost.
func BenchmarkRouting(b *testing.B) {
	_, net, hosts := benchLAN(b)
	topo := net.Topology()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := hosts[i%len(hosts)]
		dst := hosts[(i+1)%len(hosts)]
		if _, err := topo.Path(src, dst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceroute measures hop discovery.
func BenchmarkTraceroute(b *testing.B) {
	_, net, hosts := benchLAN(b)
	topo := net.Topology()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := topo.Traceroute(hosts[i%len(hosts)], hosts[(i+6)%len(hosts)]); err != nil {
			b.Fatal(err)
		}
	}
}
