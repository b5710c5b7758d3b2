package graph

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refGraph is the test's own model of a graph: edges in ID order and
// their disabled flags, kept independently of the package's CSR and
// bitset layout.
type refGraph struct {
	n        int
	from, to []NodeID
	cost     []float64
	disabled []bool
}

func (m *refGraph) addEdge(g *Graph, a, b NodeID, cost float64) {
	g.AddEdge(a, b, cost, 1)
	m.from = append(m.from, a)
	m.to = append(m.to, b)
	m.cost = append(m.cost, cost)
	m.disabled = append(m.disabled, false)
}

func (m *refGraph) setDisabled(g *Graph, id EdgeID, d bool) {
	g.SetDisabled(id, d)
	m.disabled[id] = d
}

func (m *refGraph) clone() *refGraph {
	c := *m
	c.from = append([]NodeID(nil), m.from...)
	c.to = append([]NodeID(nil), m.to...)
	c.cost = append([]float64(nil), m.cost...)
	c.disabled = append([]bool(nil), m.disabled...)
	return &c
}

// adj lists each node's outgoing edge IDs in insertion order — the
// per-node slice adjacency the CSR replaced.
func (m *refGraph) adj() [][]EdgeID {
	adj := make([][]EdgeID, m.n)
	for id := range m.from {
		adj[m.from[id]] = append(adj[m.from[id]], EdgeID(id))
	}
	return adj
}

// refFilter is the LinkFilter contract written as the per-edge closure
// the kernels used to call.
func refFilter(f *LinkFilter) func(EdgeID) bool {
	if f == nil {
		return func(EdgeID) bool { return true }
	}
	return func(id EdgeID) bool {
		l := int(id)
		if f.Link != nil {
			l = int(f.Link[id])
		}
		if f.Resid != nil && !(f.Resid[l] >= f.Min) {
			return false
		}
		return l/64 >= len(f.Avoid) || f.Avoid[l/64]&(1<<(uint(l)%64)) == 0
	}
}

// refPath is the closure-based point-to-point Dijkstra the CSR kernel
// replaced, epoch semantics included: a node's first touch in a run
// always relaxes.
func refPath(m *refGraph, src, dst NodeID, f *LinkFilter) ([]EdgeID, float64) {
	if src == dst {
		return nil, 0
	}
	admit := refFilter(f)
	adj := m.adj()
	dist := make([]float64, m.n)
	parent := make([]EdgeID, m.n)
	seen := make([]bool, m.n)
	seen[src] = true
	parent[src] = Undefined
	q := pq{{node: src}}
	for len(q) > 0 {
		it := q.pop()
		if it.dist > dist[it.node] {
			continue
		}
		if it.node == dst {
			break
		}
		for _, eid := range adj[it.node] {
			if m.disabled[eid] || !admit(eid) {
				continue
			}
			nd := it.dist + m.cost[eid]
			to := m.to[eid]
			if !seen[to] {
				seen[to] = true
			} else if nd >= dist[to] {
				continue
			}
			dist[to] = nd
			parent[to] = eid
			q.push(pqItem{node: to, dist: nd})
		}
	}
	if !seen[dst] || math.IsInf(dist[dst], 1) {
		return nil, math.Inf(1)
	}
	var rev []EdgeID
	for n := dst; n != src; n = m.from[parent[n]] {
		rev = append(rev, parent[n])
	}
	out := make([]EdgeID, len(rev))
	for i, e := range rev {
		out[len(rev)-1-i] = e
	}
	return out, dist[dst]
}

// refTree is the closure-based single-source Dijkstra the CSR tree
// kernel replaced.
func refTree(m *refGraph, src NodeID, f *LinkFilter) ([]float64, []EdgeID) {
	admit := refFilter(f)
	adj := m.adj()
	dist := make([]float64, m.n)
	parent := make([]EdgeID, m.n)
	for i := range dist {
		dist[i] = math.Inf(1)
		parent[i] = Undefined
	}
	dist[src] = 0
	q := pq{{node: src}}
	for len(q) > 0 {
		it := q.pop()
		if it.dist > dist[it.node] {
			continue
		}
		for _, eid := range adj[it.node] {
			if m.disabled[eid] || !admit(eid) {
				continue
			}
			if nd := it.dist + m.cost[eid]; nd < dist[m.to[eid]] {
				dist[m.to[eid]] = nd
				parent[m.to[eid]] = eid
				q.push(pqItem{node: m.to[eid], dist: nd})
			}
		}
	}
	return dist, parent
}

// randomFilter draws a filter over the model's edges: nil, or a link
// map (identity or many-to-one), residuals, a floor and an avoid set
// that may be shorter than the link universe.
func randomFilter(rng *rand.Rand, edges int) *LinkFilter {
	if rng.Intn(5) == 0 {
		return nil
	}
	f := &LinkFilter{}
	links := edges
	if rng.Intn(2) == 0 && edges > 0 {
		links = edges/2 + 1
		f.Link = make([]int32, edges)
		for i := range f.Link {
			f.Link[i] = int32(rng.Intn(links))
		}
	}
	if rng.Intn(4) != 0 {
		f.Resid = make([]float64, links)
		for i := range f.Resid {
			f.Resid[i] = []float64{0, 0.5, 1, 2, math.Inf(1)}[rng.Intn(5)]
		}
		f.Min = []float64{math.Inf(-1), 0, 1e-9, 1, 1.5}[rng.Intn(5)]
	}
	if rng.Intn(2) == 0 {
		f.Avoid = make([]uint64, rng.Intn((links+63)/64+1))
		for i := range f.Avoid {
			f.Avoid[i] = rng.Uint64() & rng.Uint64()
		}
	}
	return f
}

// checkKernels compares PathInto and Tree on g against the reference
// kernels on the model, for every source and a few destinations per
// source: the tree's full Dist bits and Parent array, and the path's
// edge sequence and cost bits.
func checkKernels(t *testing.T, rng *rand.Rand, g *Graph, m *refGraph) {
	t.Helper()
	pr := NewPointRouter(g)
	tr := NewTreeRouter(g)
	var buf []EdgeID
	for src := 0; src < m.n; src++ {
		f := randomFilter(rng, len(m.from))

		tree := tr.Tree(NodeID(src), f)
		dist, parent := refTree(m, NodeID(src), f)
		for n := range dist {
			if math.Float64bits(tree.Dist[n]) != math.Float64bits(dist[n]) || tree.Parent[n] != parent[n] {
				t.Fatalf("Tree(%d) node %d: dist %v parent %d, reference %v %d", src, n, tree.Dist[n], tree.Parent[n], dist[n], parent[n])
			}
		}

		for k := 0; k < 3; k++ {
			dst := NodeID(rng.Intn(m.n))
			var cost float64
			buf, cost = pr.PathInto(buf[:0], NodeID(src), dst, f)
			ref, refCost := refPath(m, NodeID(src), dst, f)
			if math.Float64bits(cost) != math.Float64bits(refCost) || !equalEdges(buf, ref) {
				t.Fatalf("PathInto(%d,%d) = %v cost %v, reference %v cost %v", src, dst, buf, cost, ref, refCost)
			}
		}
	}
}

func equalEdges(a, b []EdgeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// kernelCase builds a random multigraph from seed, with equal-cost
// parallel edges to exercise ties, and checks the kernels through
// disabling, cloning and post-freeze edge additions.
func kernelCase(t *testing.T, seed int64, nodes, edges uint8) {
	rng := rand.New(rand.NewSource(seed))
	n := int(nodes)%24 + 1
	m := &refGraph{n: n}
	g := New(n)
	addRandom := func(g *Graph, m *refGraph, k int) {
		for i := 0; i < k; i++ {
			if i > 0 && rng.Intn(3) == 0 {
				// An equal-cost parallel copy of the previous edge.
				last := len(m.from) - 1
				m.addEdge(g, m.from[last], m.to[last], m.cost[last])
				continue
			}
			m.addEdge(g, NodeID(rng.Intn(n)), NodeID(rng.Intn(n)), float64(rng.Intn(4)))
		}
	}
	disableRandom := func(g *Graph, m *refGraph) {
		for id := range m.from {
			if rng.Intn(4) == 0 {
				m.setDisabled(g, EdgeID(id), !m.disabled[id])
			}
		}
	}
	addRandom(g, m, int(edges)%160)
	checkKernels(t, rng, g, m)
	disableRandom(g, m)
	checkKernels(t, rng, g, m)

	// A clone shares the frozen topology; disabling on either copy
	// must leave the other untouched.
	c, cm := g.Clone(), m.clone()
	disableRandom(c, cm)
	checkKernels(t, rng, g, m)
	checkKernels(t, rng, c, cm)
	disableRandom(g, m)
	checkKernels(t, rng, g, m)
	checkKernels(t, rng, c, cm)

	// Edges added after a freeze: to the clone (copy-on-write of the
	// shared topology) and to the original, disabled bits carried over.
	addRandom(c, cm, rng.Intn(8)+1)
	disableRandom(c, cm)
	checkKernels(t, rng, c, cm)
	checkKernels(t, rng, g, m)
	addRandom(g, m, rng.Intn(8)+1)
	checkKernels(t, rng, g, m)
	checkKernels(t, rng, c, cm)
}

func TestKernelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		kernelCase(t, rng.Int63(), uint8(rng.Intn(256)), uint8(rng.Intn(256)))
	}
}

// FuzzPathInto checks the CSR kernels against the closure-based
// reference kernels above on random multigraphs, filters, disabled
// sets, clones and post-freeze edge additions.
func FuzzPathInto(f *testing.F) {
	f.Add(int64(1), uint8(6), uint8(20))
	f.Add(int64(2), uint8(23), uint8(159))
	f.Add(int64(3), uint8(0), uint8(0))
	f.Add(int64(4), uint8(2), uint8(64))
	f.Fuzz(kernelCase)
}

// TestPointRouterEpochWrap pins the stamp wraparound: after 2^32
// searches the stamp returns to zero, which would match every node
// never visited since the scratch was made. The searches around the
// wrap must still match a cold Dijkstra.
func TestPointRouterEpochWrap(t *testing.T) {
	g := randomGraph(5, 20, 50)
	pr := NewPointRouter(g)
	check := func(src, dst NodeID) {
		t.Helper()
		want := g.ShortestPath(src, dst, nil)
		edges, cost := pr.PathInto(nil, src, dst, nil)
		if math.Float64bits(cost) != math.Float64bits(want.Cost) || !equalEdges(edges, want.Edges) {
			t.Fatalf("stamp %d: PathInto(%d,%d) = %v cost %v, Dijkstra %v cost %v",
				pr.s.cur, src, dst, edges, cost, want.Edges, want.Cost)
		}
	}
	// One search stamped MaxUint32, then the wrap and the one after.
	pr.s.cur = math.MaxUint32 - 1
	check(0, 10)
	if pr.s.cur != math.MaxUint32 {
		t.Fatalf("stamp = %d, want MaxUint32", pr.s.cur)
	}
	check(3, NodeID(g.NumNodes()-1))
	check(7, 2)
	if pr.s.cur != 2 {
		t.Fatalf("stamp after wrap = %d, want 2", pr.s.cur)
	}
}

// deployShaped builds a multigraph shaped like the deploy-c2 auction's
// arena graph: 36 routers, 653 logical links as directed edge pairs
// (1,306 edges) with dense parallel links, roughly half of them
// disabled as in a candidate subset, and a residual filter over the
// links.
func deployShaped() (*Graph, *LinkFilter) {
	rng := rand.New(rand.NewSource(42))
	const nodes, links = 36, 653
	g := New(nodes)
	f := &LinkFilter{Link: make([]int32, 0, 2*links), Resid: make([]float64, links), Min: 1e-9}
	for l := 0; l < links; l++ {
		a := rng.Intn(nodes)
		b := (a + 1 + rng.Intn(nodes-1)) % nodes
		e1, e2 := g.AddBiEdge(NodeID(a), NodeID(b), 100+rng.Float64()*900, 100)
		f.Link = append(f.Link, int32(l), int32(l))
		f.Resid[l] = []float64{0, 10, 50, 100}[rng.Intn(4)]
		if rng.Intn(2) == 0 {
			g.SetDisabled(e1, true)
			g.SetDisabled(e2, true)
		}
	}
	return g, f
}

func BenchmarkPathInto(b *testing.B) {
	g, f := deployShaped()
	pr := NewPointRouter(g)
	buf := make([]EdgeID, 0, 64)
	buf, _ = pr.PathInto(buf, 0, 1, f) // warm the per-slot link cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := NodeID(i % 36)
		dst := NodeID((i*7 + 5) % 36)
		buf, _ = pr.PathInto(buf[:0], src, dst, f)
	}
}

// TestClonesSearchConcurrently runs searches on clones that share one
// topology from several goroutines at once, so the lazily built
// per-slot link cache is raced; each clone's results must match a
// sequential run of the same clone.
func TestClonesSearchConcurrently(t *testing.T) {
	g, f := deployShaped()
	clones := make([]*Graph, 4)
	for i := range clones {
		clones[i] = g.Clone()
		for id := EdgeID(i); int(id) < clones[i].NumEdges(); id += 5 {
			clones[i].SetDisabled(id, true)
		}
	}
	run := func(c *Graph) []float64 {
		pr := NewPointRouter(c)
		var costs []float64
		for src := 0; src < 36; src++ {
			_, cost := pr.PathInto(nil, NodeID(src), NodeID((src*7+5)%36), f)
			costs = append(costs, cost)
		}
		return costs
	}
	got := make([][]float64, len(clones))
	done := make(chan int)
	for i, c := range clones {
		go func(i int, c *Graph) {
			got[i] = run(c)
			done <- i
		}(i, c)
	}
	for range clones {
		<-done
	}
	for i, c := range clones {
		if want := run(c); fmt.Sprint(want) != fmt.Sprint(got[i]) {
			t.Fatalf("clone %d: concurrent %v, sequential %v", i, got[i], want)
		}
	}
}
