package env

import "testing"

func TestHostToHostSplitOnBandwidthRatio(t *testing.T) {
	// Dumbbell seen from one side with hosts from both: the remote hosts
	// sit behind a 10 Mbps bottleneck (ratio 10 > 3) and must be split
	// from the local ones even though the traceroute prefix differs
	// anyway; test the splitter directly on synthetic data too.
	groups := splitByBandwidth(
		[]string{"a", "b", "c", "d"},
		map[string]float64{"a": 100e6, "b": 95e6, "c": 10e6, "d": 9e6},
		3,
	)
	if len(groups) != 2 {
		t.Fatalf("groups %v", groups)
	}
	if len(groups[0]) != 2 || len(groups[1]) != 2 {
		t.Fatalf("group sizes %v", groups)
	}
}

func TestIPClassFallback(t *testing.T) {
	// §4.3 "Machines without hostname": domain falls back to the IP
	// class.
	if d := domainOf("192.168.81.1", "192.168.81.1"); d != "192.168.81.0" {
		t.Fatalf("class C fallback: %s", d)
	}
	if d := domainOf("10.1.2.3", "10.1.2.3"); d != "10.0.0.0" {
		t.Fatalf("class A fallback: %s", d)
	}
	if d := domainOf("150.1.2.3", "150.1.2.3"); d != "150.1.0.0" {
		t.Fatalf("class B fallback: %s", d)
	}
	if d := domainOf("host.dom.org", "1.2.3.4"); d != "dom.org" {
		t.Fatalf("normal domain: %s", d)
	}
}
