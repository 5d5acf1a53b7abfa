// Command nwsdeploy computes an NWS deployment plan and writes the
// shared configuration file the managers consume (§5.2). It covers the
// first two stages of the core pipeline — Map and Plan — in two ways:
//
//	nwsdeploy -gridml mapping.xml -master the-doors.ens-lyon.fr -o plan.json
//	nwsdeploy -gridml mapping.xml -topo enslyon.json   # also validates
//	nwsdeploy -map -topo enslyon.json -o plan.json     # maps with ENV itself
//
// With -gridml it plans from a saved mapping file (the administrator-
// publishes-the-mapping workflow of §4.3); with -map it runs the ENV
// mapping itself over the topology spec — collapsing the
// topogen→envmap→nwsdeploy file relay into one command — and can save
// the mapping with -mapping-out.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"nwsenv/internal/cli"
	"nwsenv/internal/core"
	"nwsenv/internal/deploy"
	"nwsenv/internal/env"
	"nwsenv/internal/gridml"
	"nwsenv/internal/topo"
)

func main() {
	gridmlFile := flag.String("gridml", "", "GridML mapping file (plan from a saved mapping)")
	doMap := flag.Bool("map", false, "run the ENV mapping itself (requires -topo)")
	mappingOut := flag.String("mapping-out", "", "with -map: save the merged GridML here")
	master := flag.String("master", "", "master machine (canonical name; default first)")
	topoFile := flag.String("topo", "", "topology spec for §2.3 validation (required with -map)")
	out := flag.String("o", "", "plan output file (default stdout)")
	flag.Parse()

	switch {
	case *doMap:
		if *topoFile == "" {
			fmt.Fprintln(os.Stderr, "nwsdeploy: -map requires -topo")
			os.Exit(2)
		}
		mapAndPlan(*topoFile, *master, *mappingOut, *out)
	case *gridmlFile != "":
		planFromFile(*gridmlFile, *topoFile, *master, *out)
	default:
		fmt.Fprintln(os.Stderr, "nwsdeploy: either -gridml or -map is required")
		os.Exit(2)
	}
}

// mapAndPlan drives the pipeline's Map and Plan stages on a simulated
// platform built from the spec.
func mapAndPlan(topoFile, master, mappingOut, out string) {
	se, err := cli.LoadSim(topoFile)
	check(err)
	runs := se.Spec.Runs(se.Topo)
	opts := []core.Option{
		core.WithAutoAliases(),
		core.WithObserver(func(e core.Event) {
			fmt.Fprintf(os.Stderr, "[%s] %s\n", e.Phase, e.Detail)
		}),
	}
	if master != "" {
		opts = append(opts, core.WithMaster(master))
	}
	pl := core.NewPipeline(se.Plat, opts...)

	var pr *core.PlanResult
	var pipeErr error
	se.Sim.Go("nwsdeploy", func() {
		m, err := pl.Map(context.Background(), runs...)
		if err != nil {
			pipeErr = err
			return
		}
		pr, pipeErr = pl.Plan(m)
	})
	check(se.Sim.RunUntil(240 * time.Hour))
	check(pipeErr)

	if mappingOut != "" {
		enc, err := pr.Mapping.Merged.Doc.Encode()
		check(err)
		check(os.WriteFile(mappingOut, append(enc, '\n'), 0o644))
	}
	fmt.Fprint(os.Stderr, pr.Plan.Summary())
	printValidation(pr.Validation)
	writePlan(pr.Plan, out)
}

// planFromFile keeps the file-based workflow: plan from a published
// mapping, validating against the topology when one is given.
func planFromFile(gridmlFile, topoFile, master, out string) {
	data, err := os.ReadFile(gridmlFile)
	check(err)
	doc, err := gridml.Decode(data)
	check(err)
	check(doc.Validate())

	merged, err := env.MergedFromGridML(doc)
	check(err)
	plan, err := deploy.NewPlan(merged, deploy.PlanConfig{Master: master})
	check(err)

	fmt.Fprint(os.Stderr, plan.Summary())

	if topoFile != "" {
		tdata, err := os.ReadFile(topoFile)
		check(err)
		spec, err := topo.DecodeSpec(tdata)
		check(err)
		tp, err := spec.Build()
		check(err)
		v, err := deploy.Validate(plan, tp, spec.Resolve(doc))
		check(err)
		printValidation(v)
		if !v.Complete {
			os.Exit(1)
		}
	}
	writePlan(plan, out)
}

func printValidation(v *deploy.Validation) {
	fmt.Fprintf(os.Stderr, "validation: complete=%v directPairs=%d/%d maxClique=%d collisionRisks=%d\n",
		v.Complete, v.DirectPairs, v.TotalPairs, v.MaxCliqueSize, len(v.CollisionRisks))
	if !v.Complete {
		fmt.Fprintf(os.Stderr, "missing pairs: %v\n", v.MissingPairs)
	}
}

func writePlan(plan *deploy.Plan, out string) {
	enc, err := deploy.EncodeConfig(plan)
	check(err)
	enc = append(enc, '\n')
	if out == "" {
		os.Stdout.Write(enc)
		return
	}
	check(os.WriteFile(out, enc, 0o644))
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "nwsdeploy:", err)
		os.Exit(1)
	}
}
