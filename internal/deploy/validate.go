package deploy

import (
	"fmt"

	"nwsenv/internal/simnet"
)

// Validation is the §2.3 constraint report for a plan.
type Validation struct {
	// Complete: every host pair measured or estimable by composition.
	Complete     bool
	MissingPairs []string

	// CollisionRisks counts clique pairs whose experiments could collide
	// on a physical resource if they ever run simultaneously. Within a
	// clique the token ring serializes experiments, so only inter-clique
	// overlaps matter.
	CollisionRisks []CollisionRisk

	// MaxCliqueSize gauges scalability (§2.3: frequency decreases with
	// clique size).
	MaxCliqueSize int

	// DirectPairs counts ordered pairs measured directly; TotalPairs is
	// n(n-1). Their ratio is the intrusiveness advantage over a full
	// mesh (§2.2: "Given a set of n computers, there is n×(n-1) links to
	// test").
	DirectPairs int
	TotalPairs  int
}

// CollisionRisk identifies two cliques with a shared physical resource
// between some of their measurement paths.
type CollisionRisk struct {
	CliqueA, CliqueB string
	PairA, PairB     [2]string
}

// ValidateConnectivity checks the topology-independent §2.3 constraints:
// completeness (every host pair measured or estimable by composition),
// direct-pair intrusiveness, and the largest clique size. Platforms
// without a known ground-truth topology (real deployments) use it as
// their whole validation; Validate builds on it.
func ValidateConnectivity(p *Plan) *Validation {
	v := &Validation{}
	for _, c := range p.Cliques {
		if len(c.Members) > v.MaxCliqueSize {
			v.MaxCliqueSize = len(c.Members)
		}
	}
	n := len(p.Hosts)
	v.TotalPairs = n * (n - 1)
	seen := map[[2]string]struct{}{}
	for _, pr := range p.MeasuredPairs() {
		seen[pr] = struct{}{}
	}
	v.DirectPairs = len(seen)

	// Completeness via the estimator with a constant oracle (topology
	// values are irrelevant here, only connectivity).
	est := NewEstimator(p, func(a, b string) (float64, float64, bool) { return 1, 1, true })
	v.Complete, v.MissingPairs = est.Complete()
	return v
}

// Validate checks a plan against the §2.3 constraints on the true
// topology. resolve maps canonical machine names to simulator node IDs.
func Validate(p *Plan, topo *simnet.Topology, resolve map[string]string) (*Validation, error) {
	v := ValidateConnectivity(p)
	risks, err := collisionRisks(p.Cliques, topo, resolve)
	if err != nil {
		return nil, err
	}
	v.CollisionRisks = risks
	return v, nil
}

// cliquePaths is one clique's measurement paths on the physical
// topology, resolved once per Validate.
type cliquePaths struct {
	pairs [][2]string
	// res[i] lists the resources pairs[i] occupies; nil when the pair is
	// unroutable (e.g. firewall): such experiments never run.
	res [][]string
	// first maps a resource to the smallest index in pairs using it.
	first map[string]int
}

// collisionRisks is the inter-clique collision analysis: for each clique
// pair (A before B in plan order) the first pair of A, in orderedPairs
// order, whose path shares a resource with any path of B, with B's
// first such pair as the witness.
func collisionRisks(cliques []CliqueSpec, topo *simnet.Topology, resolve map[string]string) ([]CollisionRisk, error) {
	id := func(name string) (string, error) {
		if node, ok := resolve[name]; ok {
			return node, nil
		}
		if topo.Node(name) != nil {
			return name, nil
		}
		return "", fmt.Errorf("deploy: cannot resolve %q to a topology node", name)
	}
	paths := make([]cliquePaths, len(cliques))
	for ci, c := range cliques {
		node := make(map[string]string, len(c.Members))
		for _, m := range c.Members {
			n, err := id(m)
			if err != nil {
				return nil, err
			}
			node[m] = n
		}
		cp := cliquePaths{pairs: orderedPairs(c.Members), first: map[string]int{}}
		cp.res = make([][]string, len(cp.pairs))
		for i, pr := range cp.pairs {
			res, err := topo.PathResources(node[pr[0]], node[pr[1]])
			if err != nil {
				continue
			}
			cp.res[i] = res
			for _, r := range res {
				if _, ok := cp.first[r]; !ok {
					cp.first[r] = i
				}
			}
		}
		paths[ci] = cp
	}
	var risks []CollisionRisk
	for a := range paths {
		for b := a + 1; b < len(paths); b++ {
			if ia, ib := paths[a].collides(paths[b]); ia >= 0 {
				risks = append(risks, CollisionRisk{
					CliqueA: cliques[a].Name, CliqueB: cliques[b].Name,
					PairA: paths[a].pairs[ia], PairB: paths[b].pairs[ib],
				})
			}
		}
	}
	return risks, nil
}

// collides returns the first pair of a sharing a resource with b and b's
// first pair sharing one with it, or -1, -1.
func (a cliquePaths) collides(b cliquePaths) (int, int) {
	for i, res := range a.res {
		witness := -1
		for _, r := range res {
			if j, ok := b.first[r]; ok && (witness < 0 || j < witness) {
				witness = j
			}
		}
		if witness >= 0 {
			return i, witness
		}
	}
	return -1, -1
}

func orderedPairs(members []string) [][2]string {
	var out [][2]string
	for _, x := range members {
		for _, y := range members {
			if x != y {
				out = append(out, [2]string{x, y})
			}
		}
	}
	return out
}
