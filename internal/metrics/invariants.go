package metrics

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"time"

	"nwsenv/internal/deploy"
	"nwsenv/internal/nws/clique"
	"nwsenv/internal/simnet"
)

// The four §2.3 predicates a running deployment keeps, in report order.
const (
	// InvCompleteness: every host pair is measured or estimable by
	// composing measured segments.
	InvCompleteness = "completeness"
	// InvCollisionFreedom: no two cliques without a common member have
	// measurement paths that share a physical resource (deploy.Validate's
	// collision risks over Topology.PathResources, the static form).
	// Cliques joined at a member are the §5.1 bridges between
	// representatives; what they share is that host, which §6 leaves to
	// host locking.
	InvCollisionFreedom = "collision_freedom"
	// InvBoundedCliques: every clique has 2 to MaxCliqueSize members, and
	// within one incarnation of its ring (deploy.Incarnation) its token
	// is never idle for more than two election watchdogs: one to notice
	// a lost token, one to elect its successor.
	InvBoundedCliques = "bounded_cliques"
	// InvOneToken: the holds of one clique's token in one epoch never
	// overlap in time; in a pairwise clique, two probes of one round
	// overlap only when their pairs share no host.
	InvOneToken = "one_token_per_clique_epoch"
)

// InvariantNames lists the predicates in report order.
var InvariantNames = []string{InvCompleteness, InvCollisionFreedom, InvBoundedCliques, InvOneToken}

// MaxCliqueSize bounds a clique's membership: an order of magnitude
// above the largest clique of the paper's ENS-Lyon plan (7), so it flags
// a planner that folds whole sites into one ring, not ordinary growth.
const MaxCliqueSize = 64

// Invariants accumulates the §2.3 predicates over a run: Check evaluates
// them against the running deployment, after every reconcile round.
type Invariants struct {
	// Checks counts evaluations.
	Checks int
	// Violations counts, per predicate, the checks it failed; First is
	// the witness of its first failure.
	Violations map[string]int
	First      map[string]string
	// holds keeps, by clique, the holds of earlier checks that a later
	// hold can still overlap or be idle after, so an overlap or a gap
	// across two checks is still one. HoldLog.Take returns holds in the
	// order they ended, and a check takes those ended since the last, so
	// a later hold ends no earlier than a kept one: it overlaps a hold of
	// its epoch exactly when it starts before that hold ended, and then
	// also overlaps the latest-ending hold of their common host. So a
	// hold is kept while, in its epoch, it is the latest-ending hold of
	// its host or (pairwise) its partner; the latest-ending of all,
	// which bounds the next idle gap, is one of those.
	holds map[string][]clique.Hold
}

// NewInvariants starts an empty ledger.
func NewInvariants() *Invariants {
	return &Invariants{Violations: map[string]int{}, First: map[string]string{}, holds: map[string][]clique.Hold{}}
}

// Check evaluates every predicate once: the static ones on plan,
// resolved onto topo through resolve (canonical name → node ID), and
// the token ones on holds, the holds taken from the running members
// since the last check.
func (v *Invariants) Check(plan *deploy.Plan, topo *simnet.Topology, resolve map[string]string, holds []clique.Hold) {
	v.Checks++
	fail := func(name, witness string) {
		if v.Violations[name] == 0 {
			v.First[name] = fmt.Sprintf("check %d: %s", v.Checks, witness)
		}
		v.Violations[name]++
	}
	val, err := deploy.Validate(plan, topo, resolve)
	switch {
	case err != nil:
		fail(InvCollisionFreedom, err.Error())
		if c := deploy.ValidateConnectivity(plan); !c.Complete {
			fail(InvCompleteness, fmt.Sprintf("pairs %v unmeasured and not composable", c.MissingPairs))
		}
	default:
		if !val.Complete {
			fail(InvCompleteness, fmt.Sprintf("pairs %v unmeasured and not composable", val.MissingPairs))
		}
		if risks := unjoined(plan, val.CollisionRisks); len(risks) > 0 {
			r := risks[0]
			fail(InvCollisionFreedom, fmt.Sprintf("%d clique pair(s) without a common member share a resource, first %s %v and %s %v",
				len(risks), r.CliqueA, r.PairA, r.CliqueB, r.PairB))
		}
	}
	if w := cliqueSizes(plan); w != "" {
		fail(InvBoundedCliques, w)
	}
	idle, overlap := v.tokens(plan, holds)
	if idle != "" {
		fail(InvBoundedCliques, idle)
	}
	if overlap != "" {
		fail(InvOneToken, overlap)
	}
}

// unjoined keeps the risks between cliques that share no member.
func unjoined(plan *deploy.Plan, risks []deploy.CollisionRisk) []deploy.CollisionRisk {
	members := map[string][]string{}
	for _, c := range plan.Cliques {
		members[c.Name] = c.Members
	}
	var out []deploy.CollisionRisk
	for _, r := range risks {
		joined := false
		for _, a := range members[r.CliqueA] {
			joined = joined || slices.Contains(members[r.CliqueB], a)
		}
		if !joined {
			out = append(out, r)
		}
	}
	return out
}

// cliqueSizes reports the first clique outside [2, MaxCliqueSize].
func cliqueSizes(plan *deploy.Plan) string {
	for _, c := range plan.Cliques {
		if n := len(c.Members); n < 2 || n > MaxCliqueSize {
			return fmt.Sprintf("clique %s has %d members, bound [2, %d]", c.Name, n, MaxCliqueSize)
		}
	}
	return ""
}

// tokens checks holds, the holds taken since the last check, against
// each other and the kept holds, then keeps what it must: overlap
// reports the first hold that overlapped another hold of its epoch
// (for a pairwise hold, one sharing a host with it), idle the first gap
// between holds of one incarnation longer than two watchdogs. Every
// finding involves a hold of this check, so a violation counts at the
// check that reveals it and never again.
func (v *Invariants) tokens(plan *deploy.Plan, holds []clique.Hold) (idle, overlap string) {
	watchdog := map[string]time.Duration{}
	for _, c := range plan.Cliques {
		watchdog[c.Name] = clique.Config{Members: c.Members, TokenGap: c.Period}.Watchdog()
	}
	byClique := map[string][]clique.Hold{}
	for _, h := range holds {
		byClique[h.Clique] = append(byClique[h.Clique], h)
	}
	for _, c := range slices.Sorted(maps.Keys(byClique)) {
		hs, kept := byClique[c], v.holds[c]
		sort.Slice(hs, func(i, j int) bool {
			return hs[i].From < hs[j].From || hs[i].From == hs[j].From && hs[i].Host < hs[j].Host
		})
		var last *clique.Hold // the hold ending latest so far
		for i := range kept {
			if last == nil || kept[i].To > last.To {
				last = &kept[i]
			}
		}
		for i, h := range hs {
			for _, earlier := range [][]clique.Hold{kept, hs[:i]} {
				for _, o := range earlier {
					if overlap == "" && o.Epoch == h.Epoch && h.From < o.To && o.From < h.To &&
						(h.Partner == "" || sharesHost(h, o)) {
						overlap = overlapWitness(c, h, o)
					}
				}
			}
			bound := 2 * watchdog[c]
			if last != nil && idle == "" && bound > 0 && h.From-last.To > bound &&
				deploy.Incarnation(h.Epoch) == deploy.Incarnation(last.Epoch) {
				idle = fmt.Sprintf("clique %s epoch %d: token idle %v before %s took seq %d, bound %v",
					c, h.Epoch, h.From-last.To, h.Host, h.Seq, bound)
			}
			if last == nil || h.To > last.To {
				last = &hs[i]
			}
		}
		for _, h := range hs {
			kept = keepLatest(kept, h)
		}
		v.holds[c] = kept
	}
	return idle, overlap
}

// keepLatest adds h to kept and returns the holds that are still, in
// their epoch, the latest-ending hold of their host or partner.
func keepLatest(kept []clique.Hold, h clique.Hold) []clique.Hold {
	kept = append(kept, h)
	// latest reports whether no other hold of kept[i]'s epoch on host
	// ends later, or as late and was added after it.
	latest := func(i int, host string) bool {
		for j, o := range kept {
			if j != i && o.Epoch == kept[i].Epoch && (o.Host == host || o.Partner == host) &&
				(o.To > kept[i].To || o.To == kept[i].To && j > i) {
				return false
			}
		}
		return true
	}
	var out []clique.Hold
	for i, k := range kept {
		if latest(i, k.Host) || k.Partner != "" && latest(i, k.Partner) {
			out = append(out, k)
		}
	}
	return out
}

// overlapWitness describes two overlapping holds of clique c, the one
// that started later first.
func overlapWitness(c string, h, o clique.Hold) string {
	if o.From > h.From {
		h, o = o, h
	}
	return fmt.Sprintf("clique %s epoch %d: %s took seq %d at %v while %s held seq %d over [%v, %v)",
		c, h.Epoch, holder(h), h.Seq, h.From, holder(o), o.Seq, o.From, o.To)
}

// holder names a hold's host, and a pairwise hold's partner after it.
func holder(h clique.Hold) string {
	if h.Partner == "" {
		return h.Host
	}
	return h.Host + "->" + h.Partner
}

// sharesHost reports whether two pairwise holds probe from or to a
// common host.
func sharesHost(a, b clique.Hold) bool {
	return a.Host == b.Host || a.Host == b.Partner || a.Partner == b.Host || a.Partner == b.Partner
}
