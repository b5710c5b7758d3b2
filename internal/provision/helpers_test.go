package provision

import (
	"math/rand"

	"github.com/public-option/poc/internal/linkset"
	"github.com/public-option/poc/internal/topo"
	"github.com/public-option/poc/internal/traffic"
)

// ringNet builds a seeded random POC network: a ring over n routers
// (so it stays connected under light pruning) plus extra chords, with
// mixed capacities so pruning sequences cross the feasibility boundary.
func ringNet(rng *rand.Rand, n, chords int) *topo.POCNetwork {
	p := &topo.POCNetwork{
		World:   &topo.World{Cities: make([]topo.City, n)},
		Routers: make([]int, n),
	}
	for i := range p.Routers {
		p.Routers[i] = i
	}
	caps := []float64{20, 40, 80}
	add := func(a, b int) {
		p.Links = append(p.Links, topo.LogicalLink{
			ID: len(p.Links), BP: len(p.Links) % 5, A: a, B: b,
			Capacity:   caps[rng.Intn(len(caps))],
			DistanceKm: 50 + rng.Float64()*450,
		})
	}
	for i := 0; i < n; i++ {
		add(i, (i+1)%n)
	}
	for i := 0; i < chords; i++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a != b {
			add(a, b)
		}
	}
	p.BPs = make([]topo.BP, 5)
	return p
}

// randomTM draws a seeded demand matrix over n routers: up to pairs
// distinct pairs of roughly gbps each.
func randomTM(rng *rand.Rand, n, pairs int, gbps float64) *traffic.Matrix {
	tm := traffic.NewMatrix(n)
	for i := 0; i < pairs; i++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a != b {
			tm.Set(a, b, tm.At(a, b)+gbps*(0.5+rng.Float64()))
		}
	}
	return tm
}

func sameCore(a, b *linkset.Set) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	return a == nil || a.Equal(b)
}
