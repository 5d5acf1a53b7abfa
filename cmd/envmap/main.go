// Command envmap runs the ENV mapper over a simulated topology and
// prints the resulting GridML (and, with -tree, the structural and
// effective views). It drives the Map stage of the core pipeline.
//
//	topogen -kind enslyon -o enslyon.json
//	envmap -topo enslyon.json -tree -o mapping.xml
//
// With -topo pointing at a spec that carries Masters/NamesOf metadata
// (the enslyon kind does), envmap runs one mapping per master and merges
// them (any number of runs fold into one view); otherwise it maps every
// host but the external target from the first. -master and -hosts
// replace either with one run (the master defaults to the first host).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"nwsenv/internal/cli"
	"nwsenv/internal/core"
	"nwsenv/internal/env"
	"nwsenv/internal/simnet"
	"nwsenv/internal/topo"
)

func main() {
	topoFile := flag.String("topo", "", "topology spec file (required)")
	master := flag.String("master", "", "mapping master (node ID); overrides spec metadata")
	hostsCSV := flag.String("hosts", "", "comma-separated node IDs to map in one run (default: the spec's runs)")
	tree := flag.Bool("tree", false, "print the structural tree and network list")
	strict := flag.Bool("strict-paper", false, "classify exactly as §4.2.2.4 (no bottleneck fallback)")
	bidi := flag.Bool("bidirectional", false, "also measure host→master bandwidth (detects asymmetric routes, §4.3 future work)")
	verbose := flag.Bool("v", false, "report pipeline progress on stderr")
	out := flag.String("o", "", "GridML output file (default stdout)")
	flag.Parse()

	if *topoFile == "" {
		fmt.Fprintln(os.Stderr, "envmap: -topo is required")
		os.Exit(2)
	}
	se, err := cli.LoadSim(*topoFile)
	check(err)
	sim, tp := se.Sim, se.Topo

	runs := se.Spec.Runs(tp)
	if *master != "" || *hostsCSV != "" {
		hosts := pickHosts(tp, *hostsCSV)
		m := *master
		if m == "" {
			m = hosts[0]
		}
		runs = []core.MapRun{{Master: m, Hosts: hosts}}
	}
	for i := range runs {
		runs[i].StrictPaper = *strict
		runs[i].Bidirectional = *bidi
	}

	opts := []core.Option{core.WithGridLabel("Grid1"), core.WithAutoAliases()}
	if *verbose {
		opts = append(opts, core.WithObserver(func(e core.Event) {
			fmt.Fprintf(os.Stderr, "[%s] %s\n", e.Phase, e.Detail)
		}))
	}
	pl := core.NewPipeline(se.Plat, opts...)

	var mapping *core.Mapping
	var mapErr error
	sim.Go("envmap", func() { mapping, mapErr = pl.Map(context.Background(), runs...) })
	check(sim.RunUntil(240 * time.Hour))
	check(mapErr)
	merged := mapping.Merged

	if *tree {
		for i, res := range mapping.Results {
			fmt.Fprintf(os.Stderr, "== structural tree (master %s) ==\n", runs[i].Master)
			printTree(res.Struct, 0)
		}
		fmt.Fprintln(os.Stderr, "== effective networks ==")
		for _, nw := range merged.Networks {
			asym := ""
			if nw.Asymmetric(env.DefaultThresholds().BWRatio) {
				asym = fmt.Sprintf(" ASYMMETRIC(rev %.2f)", nw.ReverseBW)
			}
			fmt.Fprintf(os.Stderr, "  %-20s %-8s base %7.2f Mbps local %7.2f Mbps  %s%s\n",
				nw.Label, nw.Class, nw.BaseBW, nw.LocalBW, strings.Join(nw.Hosts, ", "), asym)
		}
		fmt.Fprintf(os.Stderr, "mapping cost: %d probes, %.1f MB, %v of virtual time\n",
			merged.Stats.Probes, float64(merged.Stats.ProbeBytes)/1e6, merged.Stats.Duration())
	}

	enc, err := merged.Doc.Encode()
	check(err)
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	check(os.WriteFile(*out, enc, 0o644))
}

// pickHosts is the -hosts list, or every mappable host.
func pickHosts(tp *simnet.Topology, csv string) []string {
	if csv != "" {
		return strings.Split(csv, ",")
	}
	return topo.Mappable(tp)
}

func printTree(n *env.StructNode, depth int) {
	label := n.Hop
	if label == "" {
		label = "(root)"
	}
	fmt.Fprintf(os.Stderr, "%s%s", strings.Repeat("  ", depth+1), label)
	if len(n.Hosts) > 0 {
		fmt.Fprintf(os.Stderr, "  <- %s", strings.Join(n.Hosts, ", "))
	}
	fmt.Fprintln(os.Stderr)
	for _, c := range n.Children {
		printTree(c, depth+1)
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "envmap:", err)
		os.Exit(1)
	}
}
