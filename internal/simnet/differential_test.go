package simnet

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"nwsenv/internal/vclock"
)

// Differential property test: Network's fair-share engine must produce
// the same rates, completion times, completion order and traffic table
// as the independent reference simulator of reference_test.go (global
// progressive filling at every event) over randomized
// arrival/departure/crash/degrade/cut sequences on seeded topologies.
// Tolerances cover only the nanosecond event-grid ceiling and float
// associativity; any real divergence (wrong component, stale rate, missed
// completion) blows far past them.

// flowSim is what the differential tests drive: Network and
// ReferenceNetwork both satisfy it.
type flowSim interface {
	Transfer(src, dst string, bytes int64, tag string) (TransferStats, error)
	CrashHost(id string)
	RestoreHost(id string)
	DegradeLink(a, b string, factor float64)
	RestoreLink(a, b string)
	CutLink(a, b string)
	HealLink(a, b string)
	Traffic() []TrafficRow
}

// newFlowSim builds the engine under test or the reference.
func newFlowSim(sim *vclock.Sim, topo *Topology, reference bool) flowSim {
	if reference {
		return NewReferenceNetwork(sim, topo)
	}
	return NewNetwork(sim, topo)
}

const (
	diffRateTol = 1e-6                 // relative AvgBps tolerance
	diffEndTol  = 2 * time.Microsecond // absolute completion-time tolerance
)

type diffOpKind int

const (
	diffTransfer diffOpKind = iota
	diffCrash
	diffDegrade
	diffCut
)

type diffOp struct {
	at     time.Duration
	kind   diffOpKind
	src    string
	dst    string
	bytes  int64
	tag    string
	host   string
	linkA  string
	linkB  string
	factor float64
	dur    time.Duration
}

type diffResult struct {
	ran bool
	err error
	st  TransferStats
	// returned is when the Transfer call returned.
	returned time.Duration
}

// diffRun is what one engine made of a schedule: each op's outcome, the
// indices of the transfer ops in the order their calls returned, and
// the traffic table at the horizon.
type diffRun struct {
	results []diffResult
	order   []int
	traffic []TrafficRow
}

// genDiffOps builds a deterministic operation schedule for a seed. It is
// pure: both engines execute the identical list.
func genDiffOps(seed int64, subnets int, hosts []string) []diffOp {
	rng := rand.New(rand.NewSource(seed * 7919))
	var ops []diffOp
	nxfer := 18 + rng.Intn(12)
	for i := 0; i < nxfer; i++ {
		src := hosts[rng.Intn(len(hosts))]
		dst := hosts[rng.Intn(len(hosts))]
		if src == dst {
			continue
		}
		tag := ""
		if rng.Intn(4) == 0 {
			tag = fmt.Sprintf("probe%d", i)
		}
		ops = append(ops, diffOp{
			at:   time.Duration(rng.Intn(20000))*time.Millisecond + time.Duration(rng.Intn(977))*time.Microsecond,
			kind: diffTransfer,
			src:  src, dst: dst,
			bytes: int64(1+rng.Intn(40)) * 499_979,
			tag:   tag,
		})
	}
	nfault := 2 + rng.Intn(3)
	for i := 0; i < nfault; i++ {
		at := time.Duration(3000+rng.Intn(15000))*time.Millisecond + time.Duration(rng.Intn(977))*time.Microsecond
		dur := time.Duration(1000+rng.Intn(5000))*time.Millisecond + 311*time.Microsecond
		switch rng.Intn(3) {
		case 0:
			ops = append(ops, diffOp{
				at: at, kind: diffCrash, dur: dur,
				host: hosts[rng.Intn(len(hosts))],
			})
		case 1:
			ops = append(ops, diffOp{
				at: at, kind: diffDegrade, dur: dur,
				linkA:  fmt.Sprintf("r%d", rng.Intn(subnets)),
				linkB:  "root",
				factor: 0.1 + 0.8*rng.Float64(),
			})
		default:
			h := hosts[rng.Intn(len(hosts))]
			ops = append(ops, diffOp{
				at: at, kind: diffCut, dur: dur,
				linkA: h,
				linkB: "seg" + h[1:2],
			})
		}
	}
	return ops
}

// runDiffOps executes the schedule on net.
func runDiffOps(t *testing.T, sim *vclock.Sim, net flowSim, ops []diffOp, horizon time.Duration) diffRun {
	t.Helper()
	run := diffRun{results: make([]diffResult, len(ops))}
	for i, o := range ops {
		i, o := i, o
		sim.Go(fmt.Sprintf("op%d", i), func() {
			sim.Sleep(o.at)
			switch o.kind {
			case diffTransfer:
				st, err := net.Transfer(o.src, o.dst, o.bytes, o.tag)
				run.results[i] = diffResult{ran: true, err: err, st: st, returned: sim.Now()}
				run.order = append(run.order, i)
			case diffCrash:
				net.CrashHost(o.host)
				sim.Sleep(o.dur)
				net.RestoreHost(o.host)
			case diffDegrade:
				net.DegradeLink(o.linkA, o.linkB, o.factor)
				sim.Sleep(o.dur)
				net.RestoreLink(o.linkA, o.linkB)
			case diffCut:
				net.CutLink(o.linkA, o.linkB)
				sim.Sleep(o.dur)
				net.HealLink(o.linkA, o.linkB)
			}
		})
	}
	if err := sim.RunUntil(horizon); err != nil {
		t.Fatal(err)
	}
	run.traffic = net.Traffic()
	return run
}

// trafficOf folds the ops' own Transfer results into the traffic table
// they imply, sorted by key. A call that returned later than its op was
// issued started a flow, since a refused one returns at once; it
// completed the flow if it returned no error, and an aborted one counts
// in Started only.
func trafficOf(ops []diffOp, results []diffResult) []TrafficRow {
	var rows []TrafficRow
	at := map[[3]string]int{}
	for i, o := range ops {
		r := results[i]
		if !r.ran || (r.err != nil && r.returned == o.at) {
			continue
		}
		k := [3]string{o.src, o.dst, o.tag}
		j, ok := at[k]
		if !ok {
			j = len(rows)
			at[k] = j
			rows = append(rows, TrafficRow{Src: o.src, Dst: o.dst, Tag: o.tag})
		}
		rows[j].Started++
		rows[j].StartedBytes += o.bytes
		if r.err == nil {
			rows[j].Done++
			rows[j].DoneBytes += o.bytes
		}
	}
	return sortedTraffic(rows)
}

// sortedTraffic returns a copy of rows sorted by key.
func sortedTraffic(rows []TrafficRow) []TrafficRow {
	out := slices.Clone(rows)
	slices.SortFunc(out, func(a, b TrafficRow) int {
		return cmp.Or(cmp.Compare(a.Src, b.Src), cmp.Compare(a.Dst, b.Dst), cmp.Compare(a.Tag, b.Tag))
	})
	return out
}

// compareDiff requires the engine's per-op outcomes, return order and
// traffic table to match the reference's, and each table to be the
// fold of its own run's Transfer results.
func compareDiff(t *testing.T, label string, ops []diffOp, inc, ref diffRun) {
	t.Helper()
	near := func(a, b time.Duration) bool { d := a - b; return d <= diffEndTol && d >= -diffEndTol }
	for i := range inc.results {
		a, b := inc.results[i], ref.results[i]
		if !a.ran || !b.ran {
			continue // fault op
		}
		if (a.err != nil) != (b.err != nil) {
			t.Errorf("%s op %d: error divergence: engine=%v reference=%v", label, i, a.err, b.err)
			continue
		}
		if a.err != nil {
			continue
		}
		if a.st.Bytes != b.st.Bytes || a.st.Src != b.st.Src || a.st.Dst != b.st.Dst {
			t.Errorf("%s op %d: stats identity mismatch: %+v vs %+v", label, i, a.st, b.st)
			continue
		}
		if rel := math.Abs(a.st.AvgBps-b.st.AvgBps) / b.st.AvgBps; rel > diffRateTol {
			t.Errorf("%s op %d (%s->%s): rate divergence %.3g: engine %.6f Mbps vs reference %.6f Mbps",
				label, i, a.st.Src, a.st.Dst, rel, a.st.AvgBps/1e6, b.st.AvgBps/1e6)
		}
		if !near(a.st.End, b.st.End) {
			t.Errorf("%s op %d (%s->%s): completion divergence: engine %v vs reference %v",
				label, i, a.st.Src, a.st.Dst, a.st.End, b.st.End)
		}
		if !near(a.st.Start, b.st.Start) {
			t.Errorf("%s op %d: start divergence: engine %v vs reference %v", label, i, a.st.Start, b.st.Start)
		}
	}
	if !slices.Equal(inc.order, ref.order) {
		t.Errorf("%s: completion order diverges: engine returned ops %v, reference %v", label, inc.order, ref.order)
	}
	if !slices.Equal(inc.traffic, ref.traffic) {
		t.Errorf("%s: traffic tables diverge:\nengine    %+v\nreference %+v", label, inc.traffic, ref.traffic)
	}
	for _, run := range []struct {
		name string
		diffRun
	}{{"engine", inc}, {"reference", ref}} {
		if got, want := sortedTraffic(run.traffic), trafficOf(ops, run.results); !slices.Equal(got, want) {
			t.Errorf("%s: %s traffic table is not the fold of its transfers:\ntable %+v\nfold  %+v", label, run.name, got, want)
		}
	}
}

func TestDifferentialIncrementalVsNaive(t *testing.T) {
	const subnets, perSubnet = 3, 3
	for seed := int64(1); seed <= 50; seed++ {
		var ops []diffOp
		run := func(reference bool) diffRun {
			topo, hosts := randomLAN(seed, subnets, perSubnet)
			sim := vclock.New()
			ops = genDiffOps(seed, subnets, hosts)
			return runDiffOps(t, sim, newFlowSim(sim, topo, reference), ops, 4*time.Hour)
		}
		inc := run(false)
		compareDiff(t, fmt.Sprintf("seed %d", seed), ops, inc, run(true))
	}
}

// TestDifferentialPureContention has no faults: dense overlapping
// transfers between few hosts so every arrival and departure reshuffles
// shares, with twins that complete at one instant. Engine and reference
// must agree pairwise on every completion and on the order the calls
// return.
func TestDifferentialPureContention(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		var ops []diffOp
		run := func(reference bool) diffRun {
			topo, hosts := randomLAN(98+seed, 2, 3)
			sim := vclock.New()
			rng := rand.New(rand.NewSource(4241 + seed))
			ops = nil
			for i := 0; i < 40; i++ {
				src := hosts[rng.Intn(len(hosts))]
				dst := hosts[rng.Intn(len(hosts))]
				if src == dst {
					continue
				}
				op := diffOp{
					at:   time.Duration(rng.Intn(3000)) * time.Millisecond,
					kind: diffTransfer,
					src:  src, dst: dst,
					bytes: int64(1+rng.Intn(25)) * 999_983,
				}
				ops = append(ops, op)
				if i%5 == 0 {
					// A twin on the same path at the same instant: the
					// two complete together, and their calls must
					// return in arrival order.
					ops = append(ops, op)
				}
			}
			return runDiffOps(t, sim, newFlowSim(sim, topo, reference), ops, time.Hour)
		}
		inc := run(false)
		compareDiff(t, fmt.Sprintf("seed %d", seed), ops, inc, run(true))
	}
}
