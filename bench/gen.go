package main

import (
	"fmt"
	"math/rand"
	"time"

	"nwsenv/internal/nws/proto"
)

// seriesSet is the generated load's data: series names and every
// sample value are pure functions of the seed, so a reply can be checked
// against what the harness stored without keeping a copy of it.
type seriesSet struct {
	seed  uint64
	names []string
}

func newSeriesSet(seed int64, n int) *seriesSet {
	s := &seriesSet{seed: uint64(seed), names: make([]string, n)}
	for i := range s.names {
		s.names[i] = fmt.Sprintf("bw.%08x.%05d", uint32(mix(s.seed, uint64(i), 0)), i)
	}
	return s
}

// mix is splitmix64 over (seed, a, b).
func mix(seed, a, b uint64) uint64 {
	z := seed + 0x9e3779b97f4a7c15*(a+1) + 0xbf58476d1ce4e5b9*(b+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// sample is the n-th sample ever stored to series i: one per virtual
// second, a per-series level plus noise.
func (s *seriesSet) sample(i, n int) proto.Sample {
	level := 20 + float64(mix(s.seed, uint64(i), 1)>>11)/(1<<53)*60
	noise := float64(mix(s.seed, uint64(i), uint64(n)+2)>>11)/(1<<53)*10 - 5
	return proto.Sample{At: time.Duration(n) * time.Second, Value: level + noise}
}

// window is samples [from, to) of series i.
func (s *seriesSet) window(i, from, to int) []proto.Sample {
	out := make([]proto.Sample, 0, to-from)
	for n := from; n < to; n++ {
		out = append(out, s.sample(i, n))
	}
	return out
}

// stored reports whether sm is a sample the harness generated for
// series i, and which one.
func (s *seriesSet) stored(i int, sm proto.Sample) (n int, ok bool) {
	n = int(sm.At / time.Second)
	return n, n >= 0 && s.sample(i, n) == sm
}

// batch is one client request: the series asked for and their indices.
type batch struct {
	reqs []proto.SeriesRequest
	idx  []int
}

// batches cuts a seeded permutation of the series into requests of size
// per (cyclic=false), or the series in index order (cyclic=true).
func (s *seriesSet) batches(rng *rand.Rand, per, count int, cyclic bool) []batch {
	order := make([]int, len(s.names))
	for i := range order {
		order[i] = i
	}
	if !cyclic {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	}
	out := make([]batch, 0, len(order)/per)
	for at := 0; at+per <= len(order); at += per {
		b := batch{idx: order[at : at+per], reqs: make([]proto.SeriesRequest, per)}
		for k, i := range b.idx {
			b.reqs[k] = proto.SeriesRequest{Series: s.names[i], Count: count}
		}
		out = append(out, b)
	}
	return out
}
