package main

import (
	"maps"
	"math"
	"math/rand"
	"slices"

	"nwhy/internal/core"
	"nwhy/internal/gen"
	"nwhy/internal/sparse"
)

// shape names one input family. Each is built from the workload seed, so
// the same seed gives the same hypergraph and other seeds give fresh
// hypergraphs of the same size and skew.
type shape struct {
	name  string
	build func(seed int64, scale float64) *core.Hypergraph
}

func scaled(n int, scale float64) int {
	v := int(float64(n) * scale)
	if v < 8 {
		v = 8
	}
	return v
}

// The three shapes of the batch workload, sized so that one file→answer job
// costs roughly 50–500 ms on a 2-vCPU machine.
var batchShapes = []shape{
	{"com-orkut-mini", func(seed int64, sc float64) *core.Hypergraph {
		// Community hypergraph: many more hyperedges than nodes, skewed on
		// both sides (the com-orkut-mini preset at half scale).
		return gen.Community(gen.CommunityConfig{
			NumEdges: scaled(13000, sc), NumNodes: scaled(2000, sc), MeanEdgeSize: 7,
			SizeSkew: 1.6, MemberSkew: 0.5, Seed: seed,
		})
	}},
	{"containment-mini", func(seed int64, sc float64) *core.Hypergraph {
		// Nested hyperedges: most are subsets of a base toplex.
		return containment(gen.ContainmentConfig{
			NumBase: scaled(1200, sc), NumNodes: scaled(8000, sc), BaseSize: 24,
			SubsPerBase: 7, MemberSkew: 0.45, Seed: seed,
		})
	}},
	{"powerlaw", func(seed int64, sc float64) *core.Hypergraph {
		// Bipartite power law on both sides: ~1.5M line edges at s=2.
		return gen.BipartitePowerLaw(scaled(3500, sc), scaled(8000, sc), scaled(38000, sc), 1.7, seed)
	}},
}

// The serving datasets: the same families at sizes where an uncached /scc
// costs about 10–80 ms.
var serveShapes = []shape{
	{"community", func(seed int64, sc float64) *core.Hypergraph {
		return gen.Community(gen.CommunityConfig{
			NumEdges: scaled(10000, sc), NumNodes: scaled(1600, sc), MeanEdgeSize: 7,
			SizeSkew: 1.6, MemberSkew: 0.5, Seed: seed,
		})
	}},
	{"containment", func(seed int64, sc float64) *core.Hypergraph {
		return containment(gen.ContainmentConfig{
			NumBase: scaled(1000, sc), NumNodes: scaled(6500, sc), BaseSize: 24,
			SubsPerBase: 7, MemberSkew: 0.45, Seed: seed,
		})
	}},
	{"powerlaw", func(seed int64, sc float64) *core.Hypergraph {
		return gen.BipartitePowerLaw(scaled(2000, sc), scaled(4400, sc), scaled(19000, sc), 1.7, seed)
	}},
}

// mutateShape is serve-mutate's one dataset: a containment hypergraph, whose
// s-line graph cost varies little from seed to seed, small enough that a
// refresh after each commit stays in the tens of milliseconds.
var mutateShape = shape{"containment", func(seed int64, sc float64) *core.Hypergraph {
	return containment(gen.ContainmentConfig{
		NumBase: scaled(600, sc), NumNodes: scaled(4000, sc), BaseSize: 24,
		SubsPerBase: 7, MemberSkew: 0.45, Seed: seed,
	})
}}

// inputSeed derives the generator seed of input k from the workload seed.
func inputSeed(seed int64, k int) int64 { return seed*7919 + int64(k)*104729 + 1 }

// containment is gen.Containment with each base's members sorted before
// its subsets are drawn. gen.Containment takes that order from a map's
// iteration, so one seed gives a different hypergraph on every call; the
// benchmark needs the same inputs from the same seed.
func containment(cfg gen.ContainmentConfig) *core.Hypergraph {
	rng := rand.New(rand.NewSource(cfg.Seed))
	cfg.BaseSize = min(cfg.BaseSize, cfg.NumNodes)
	bel := sparse.NewBiEdgeList(cfg.NumBase*(1+cfg.SubsPerBase), cfg.NumNodes)
	bases := make([][]uint32, cfg.NumBase)
	seen := make(map[uint32]bool, cfg.BaseSize)
	for b := range bases {
		clear(seen)
		for len(seen) < cfg.BaseSize {
			// gen's pickMember: u^(1/(1-skew)) biases toward low IDs.
			v := min(int(float64(cfg.NumNodes)*math.Pow(rng.Float64(), 1/(1-cfg.MemberSkew))), cfg.NumNodes-1)
			seen[uint32(v)] = true
		}
		bases[b] = slices.Sorted(maps.Keys(seen))
		for _, v := range bases[b] {
			bel.Edges = append(bel.Edges, sparse.Edge{U: uint32(b), V: v})
		}
	}
	e := uint32(cfg.NumBase)
	for _, members := range bases {
		for k := 0; k < cfg.SubsPerBase; k++ {
			size := 1 + rng.Intn(len(members)-1)
			rng.Shuffle(len(members), func(i, j int) { members[i], members[j] = members[j], members[i] })
			for _, v := range members[:size] {
				bel.Edges = append(bel.Edges, sparse.Edge{U: e, V: v})
			}
			e++
		}
	}
	return core.FromBiEdgeList(bel)
}
