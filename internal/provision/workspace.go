package provision

import (
	"math/bits"
	"sort"
	"sync"

	"github.com/public-option/poc/internal/graph"
	"github.com/public-option/poc/internal/linkset"
	"github.com/public-option/poc/internal/partition"
	"github.com/public-option/poc/internal/topo"
	"github.com/public-option/poc/internal/traffic"
)

// Workspace is a reusable provisioning arena for one (network, routing
// metric) pair. The auction's winner determination probes thousands of
// near-identical link subsets; a Workspace builds the routing graph
// over *every* logical link once — a frozen CSR topology with the
// metric baked into its costs — and evaluates each candidate subset by
// flipping the arena graph's packed per-edge disabled bits against the
// include bitset: an O(diff) word-scan per check instead of a full
// graph rebuild. Both Dijkstra engines skip disabled edges before any
// heap operation and the CSR keeps each node's edges in insertion
// order, so the toggled full graph explores exactly the node/edge
// sequence a subset-built graph would: every path, cost and residual
// is bit-identical to the rebuild-per-check seed behaviour.
//
// A Workspace owns a free list of arenas. Every arena is a Clone of
// one template graph, so all of them share the immutable topology
// (CSR, costs, endpoints) and the link↔edge maps; an arena owns only
// its disabled bits, residuals, pooled TreeRouter/PointRouter scratch,
// usage accumulators and, while it backs a Shaver's live routing, that
// routing's crossing index. Route/Check acquire an arena, apply the
// include set, and release it on return; parallel callers
// (Constraint-2 scenario sweeps, the auction's counterfactuals)
// therefore each own a private arena for the duration of a routing —
// the per-worker ownership rule that keeps parallel runs bit-identical
// (DESIGN.md §10).
//
// The Workspace is bound to the Options.LinkCost metric it was created
// with: edge costs are frozen into the template topology. Callers must
// not pass one workspace to checks using a different metric (the
// auction builds one workspace per winner determination, whose metric
// is fixed for that determination's lifetime).
type Workspace struct {
	p        *topo.POCNetwork
	linkCost func(l topo.LogicalLink) float64
	all      *linkset.Set

	mu   sync.Mutex
	free []*router
	// tmpl is the arena every other arena clones (built on first
	// acquire); its graph's topology is shared by all of them.
	tmpl *router

	// Demand-shape caches, keyed by traffic-matrix pointer: the
	// flattened + sorted demand list, its by-source grouping, the
	// per-source destination lists for primary-path trees, and the
	// heaviest-pairs ranking. All are pure functions of the matrix,
	// which is constant across an auction, so each is computed once
	// per workspace instead of once per routing.
	dmu   sync.Mutex
	dsTM  *traffic.Matrix
	ds    []demand
	bySrc map[int][]demand
	srcs  []int
	pTM   *traffic.Matrix
	pDsts map[int][]int
	pSrcs []int
	hpTM  *traffic.Matrix
	hpN   int
	hp    [][2]int
	// Regional-decomposition projection cache: the per-component
	// matrices for (matrix, partition labeling). Pointer-stable across
	// probes that split the same way, so the demand-shape caches above
	// and the FeasibilityCache's per-matrix fingerprints stay warm for
	// every component sub-problem.
	projTM  *traffic.Matrix
	projSig uint64
	proj    []*traffic.Matrix
}

// NewWorkspace returns a workspace for p bound to opts.LinkCost (nil
// means physical distance). Arenas are built lazily on first use and
// recycled across checks.
func NewWorkspace(p *topo.POCNetwork, opts Options) *Workspace {
	return &Workspace{
		p:        p,
		linkCost: opts.LinkCost,
		all:      linkset.All(len(p.Links)),
	}
}

// resolve returns the workspace to use for a call on network p: the
// one threaded through opts when it matches, else a fresh transient
// workspace (package-level entry points without a workspace pay one
// arena build, exactly like the rebuild-per-call seed behaviour).
func (o Options) resolve(p *topo.POCNetwork) Options {
	if o.Workspace == nil || o.Workspace.p != p {
		o.Workspace = NewWorkspace(p, o)
	}
	return o
}

// acquire pops a free arena or builds one. Every acquire must be
// released on all paths (poclint arenapair enforces it): a leaked
// arena pins its allocation until the workspace dies and silently
// degrades pool reuse for every later call.
//
//lint:acquire arena
func (ws *Workspace) acquire() *router {
	ws.mu.Lock()
	if n := len(ws.free); n > 0 {
		rt := ws.free[n-1]
		ws.free[n-1] = nil
		ws.free = ws.free[:n-1]
		ws.mu.Unlock()
		return rt
	}
	if ws.tmpl == nil {
		// The first clone freezes and publishes the shared topology
		// under the lock; later clones only read it.
		ws.tmpl = newTemplate(ws.p, ws.linkCost)
		rt := ws.tmpl.clone()
		ws.mu.Unlock()
		return rt
	}
	tmpl := ws.tmpl
	ws.mu.Unlock()
	return tmpl.clone()
}

// release returns an arena to the free list.
//
//lint:release arena
func (ws *Workspace) release(rt *router) {
	ws.mu.Lock()
	ws.free = append(ws.free, rt)
	ws.mu.Unlock()
}

// newTemplate builds the routing graph over every logical link of p
// (enabled), with the metric frozen into the edge costs.
func newTemplate(p *topo.POCNetwork, linkCost func(l topo.LogicalLink) float64) *router {
	g := graph.New(len(p.Routers))
	edgeFor := make([][2]graph.EdgeID, len(p.Links))
	for _, l := range p.Links {
		c := l.DistanceKm
		if linkCost != nil {
			c = linkCost(l)
		}
		e1, e2 := g.AddBiEdge(graph.NodeID(l.A), graph.NodeID(l.B), c, l.Capacity)
		edgeFor[l.ID] = [2]graph.EdgeID{e1, e2}
	}
	linkFor := make([]int32, g.NumEdges())
	for id, pair := range edgeFor {
		linkFor[pair[0]] = int32(id)
		linkFor[pair[1]] = int32(id)
	}
	return &router{p: p, g: g, edgeFor: edgeFor, linkFor: linkFor}
}

// clone returns a fresh arena over the template's shared topology and
// link maps, every link enabled, with private routing state.
func (tmpl *router) clone() *router {
	p := tmpl.p
	g := tmpl.g.Clone()
	rt := &router{
		p:           p,
		g:           g,
		pr:          graph.NewPointRouter(g),
		tr:          graph.NewTreeRouter(g),
		edgeFor:     tmpl.edgeFor,
		linkFor:     tmpl.linkFor,
		resid:       make([]float64, len(p.Links)),
		usedScratch: make([]float64, len(p.Links)),
		enabled:     linkset.All(len(p.Links)),
	}
	rt.lf = graph.LinkFilter{Link: rt.linkFor, Resid: rt.resid}
	return rt
}

// apply configures the arena for one candidate subset: links outside
// include (nil = all) are disabled, links inside get their residual
// reset to capacity×(1−headroom). The disabled flags are toggled via a
// word-level XOR against the arena's current enabled set, so repeated
// checks over near-identical sets touch only the differing links.
// Residuals of excluded links are left stale — every algorithm checks
// Disabled before reading a residual.
func (rt *router) apply(include *linkset.Set, headroom float64, all *linkset.Set) {
	target := include
	if target == nil {
		target = all
	}
	ew := rt.enabled.Words()
	tw := target.Words()
	for wi := range ew {
		var t uint64
		if wi < len(tw) {
			t = tw[wi]
		}
		diff := ew[wi] ^ t
		for diff != 0 {
			bit := uint(bits.TrailingZeros64(diff))
			diff &= diff - 1
			id := wi*64 + int(bit)
			dis := t&(uint64(1)<<bit) == 0
			pair := rt.edgeFor[id]
			rt.g.SetDisabled(pair[0], dis)
			rt.g.SetDisabled(pair[1], dis)
		}
		ew[wi] = t
	}
	scale := 1 - headroom
	target.Iterate(func(id int) {
		rt.resid[id] = rt.p.Links[id].Capacity * scale
	})
}

// demands returns the flattened demand list, its by-source grouping
// and the source order for tm, computing them once per matrix.
func (ws *Workspace) demands(tm *traffic.Matrix) ([]demand, map[int][]demand, []int) {
	ws.dmu.Lock()
	defer ws.dmu.Unlock()
	if ws.dsTM != tm {
		ds := flatten(tm)
		bySrc := make(map[int][]demand, tm.Size())
		rowTotal := make(map[int]float64, tm.Size())
		for _, d := range ds {
			bySrc[d.src] = append(bySrc[d.src], d)
			rowTotal[d.src] += d.gbps
		}
		srcs := make([]int, 0, len(bySrc))
		for s := range bySrc {
			srcs = append(srcs, s)
		}
		sort.Slice(srcs, func(i, j int) bool {
			if rowTotal[srcs[i]] != rowTotal[srcs[j]] {
				return rowTotal[srcs[i]] > rowTotal[srcs[j]]
			}
			return srcs[i] < srcs[j]
		})
		ws.dsTM, ws.ds, ws.bySrc, ws.srcs = tm, ds, bySrc, srcs
	}
	return ws.ds, ws.bySrc, ws.srcs
}

// primaryDemands returns the per-source destination lists and sorted
// source order for tm's demand pairs, computed once per matrix.
func (ws *Workspace) primaryDemands(tm *traffic.Matrix) (map[int][]int, []int) {
	ws.dmu.Lock()
	defer ws.dmu.Unlock()
	if ws.pTM != tm {
		dsts := map[int][]int{}
		tm.Demands(func(s, d int, _ float64) { dsts[s] = append(dsts[s], d) })
		srcs := make([]int, 0, len(dsts))
		for s := range dsts {
			srcs = append(srcs, s)
		}
		sort.Ints(srcs)
		ws.pTM, ws.pDsts, ws.pSrcs = tm, dsts, srcs
	}
	return ws.pDsts, ws.pSrcs
}

// projections returns projectMatrix(tm, pt), computed once per
// (matrix, partition-signature) pair.
func (ws *Workspace) projections(tm *traffic.Matrix, pt *partition.Partition) []*traffic.Matrix {
	sig := pt.Signature()
	ws.dmu.Lock()
	defer ws.dmu.Unlock()
	if ws.projTM != tm || ws.projSig != sig || len(ws.proj) != pt.NumComp {
		ws.projTM, ws.projSig, ws.proj = tm, sig, projectMatrix(tm, pt)
	}
	return ws.proj
}

// heaviest returns heaviestPairs(tm, n), computed once per (matrix, n).
func (ws *Workspace) heaviest(tm *traffic.Matrix, n int) [][2]int {
	ws.dmu.Lock()
	defer ws.dmu.Unlock()
	if ws.hpTM != tm || ws.hpN != n {
		ws.hpTM, ws.hpN, ws.hp = tm, n, heaviestPairs(tm, n)
	}
	return ws.hp
}
