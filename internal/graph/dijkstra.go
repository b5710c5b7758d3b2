package graph

import (
	"math"
	"math/bits"
	"sync"
)

// pqItem is an entry in the Dijkstra priority queue.
type pqItem struct {
	node NodeID
	dist float64
}

// pq is a binary min-heap on dist. push/pop inline the exact sift
// order of container/heap (same comparisons, same swaps), so the pop
// sequence — including ties — is identical to the heap.Interface
// implementation this replaces, without boxing an interface value per
// operation.
type pq []pqItem

func (q *pq) push(it pqItem) {
	s := append(*q, it)
	*q = s
	j := len(s) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !(s[j].dist < s[i].dist) {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

func (q *pq) pop() pqItem {
	s := *q
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	i := 0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && s[j2].dist < s[j].dist {
			j = j2
		}
		if !(s[j].dist < s[i].dist) {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	it := s[n]
	*q = s[:n]
	return it
}

// ShortestTree holds the result of a single-source shortest-path run:
// per-node distance and the incoming edge on the shortest path.
type ShortestTree struct {
	Source NodeID
	Dist   []float64
	Parent []EdgeID // incoming edge on shortest path, Undefined at source/unreachable
}

// Reachable reports whether n has a finite distance from the source.
func (t *ShortestTree) Reachable(n NodeID) bool {
	return !math.IsInf(t.Dist[n], 1)
}

// PathTo reconstructs the shortest path from the tree's source to dst.
// It returns a zero-length path with infinite cost when dst is
// unreachable, and an empty path with zero cost when dst == source.
func (t *ShortestTree) PathTo(g *Graph, dst NodeID) Path {
	if !t.Reachable(dst) {
		return Path{Cost: math.Inf(1)}
	}
	var rev []EdgeID
	for n := dst; n != t.Source; {
		eid := t.Parent[n]
		if eid == Undefined {
			return Path{Cost: math.Inf(1)}
		}
		rev = append(rev, eid)
		n = NodeID(g.t.ends[eid].from)
	}
	// Reverse in place.
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return Path{Edges: rev, Cost: t.Dist[dst]}
}

// LinkFilter restricts which edges a search may traverse. It is a
// plain value rather than a closure: the kernels test it inline for
// every CSR slot, with no indirect call per edge. Each edge maps to a
// link — Link[edgeID], or the edge's own ID when Link is nil — and
// the edge is admitted when
//
//	(Resid == nil || Resid[link] >= Min) && link ∉ Avoid
//
// Avoid is a bitset over link IDs (bit link%64 of word link/64); words
// past its end count as absent. A nil *LinkFilter admits every enabled
// edge, and disabled edges are always skipped regardless of the
// filter. Link must not change while any graph has seen it: each
// topology caches its per-slot projection keyed by the slice's
// identity. Resid, Min and Avoid are read afresh on every search.
type LinkFilter struct {
	Link  []int32
	Resid []float64
	Min   float64
	Avoid []uint64
}

// admits reports whether the filter passes edge id; the disabled bit
// is the caller's to check. The search kernels inline the same test
// per CSR slot; the cold algorithms (BFS, max-flow, Yen) call this.
func (f *LinkFilter) admits(id EdgeID) bool {
	if f == nil {
		return true
	}
	l := int32(id)
	if f.Link != nil {
		l = f.Link[id]
	}
	if f.Resid != nil && !(f.Resid[l] >= f.Min) {
		return false
	}
	w := int(l >> 6)
	return w >= len(f.Avoid) || f.Avoid[w]&(1<<(uint32(l)&63)) == 0
}

// slotLinks is a topology's cached per-slot projection of one
// LinkFilter.Link map.
type slotLinks struct {
	a   *csr
	src *int32 // &Link[0], nil for the identity map
	n   int
	ids []int32
}

// slotLinks returns link[a.eid[k]] for every CSR slot k (the edge ID
// itself when link is nil), cached per topology by slice identity.
// Concurrent searches on clones may both build it; the contents are
// identical and the atomic publish keeps them race-free.
func (t *topology) slotLinks(a *csr, link []int32) []int32 {
	var src *int32
	if len(link) > 0 {
		src = &link[0]
	}
	if c := t.links.Load(); c != nil && c.a == a && c.src == src && c.n == len(link) {
		return c.ids
	}
	ids := make([]int32, len(a.eid))
	for k, id := range a.eid {
		if link == nil {
			ids[k] = int32(id)
		} else {
			ids[k] = link[id]
		}
	}
	t.links.Store(&slotLinks{a: a, src: src, n: len(link), ids: ids})
	return ids
}

// search is one routing run's resolved view of a graph and filter:
// the CSR arrays, the slot-ordered disabled bitset and, when a filter
// is set, its per-slot link IDs. The kernels walk a node's slots a
// bitset word at a time (see enabled), visiting enabled slots in
// ascending order — the adjacency order — without a branch per
// disabled edge.
type search struct {
	off   []int32
	to    []int32
	eid   []EdgeID
	cost  []float64
	dis   []uint64
	link  []int32 // nil: no filter
	resid []float64
	min   float64
	avoid []uint64
}

// enabled returns word w of the enabled-slot mask restricted to slots
// [lo, hi); w must overlap that range.
func (s *search) enabled(w, lo, hi int) uint64 {
	m := ^s.dis[w]
	if w<<6 < lo {
		m &= ^uint64(0) << uint(lo&63)
	}
	if end := (w + 1) << 6; end > hi {
		m &= ^uint64(0) >> uint(end-hi)
	}
	return m
}

func (g *Graph) search(f *LinkFilter) search {
	a := g.adjacency()
	s := search{off: a.off, to: a.to, eid: a.eid, cost: a.cost, dis: g.disabled}
	if f != nil {
		s.link = g.t.slotLinks(a, f.Link)
		s.resid, s.min, s.avoid = f.Resid, f.Min, f.Avoid
	}
	return s
}

// pqPool recycles priority-queue backing arrays across one-shot
// Dijkstra runs; the heap is the only scratch that does not escape to
// the caller.
var pqPool = sync.Pool{New: func() interface{} { return new(pq) }}

// dijkstraInto runs the Dijkstra loop from src over t's Dist/Parent
// slices (already sized and initialized) using q as heap scratch.
func dijkstraInto(g *Graph, src NodeID, filter *LinkFilter, t *ShortestTree, q *pq) {
	s := g.search(filter)
	*q = append((*q)[:0], pqItem{node: src})
	for len(*q) > 0 {
		it := q.pop()
		if it.dist > t.Dist[it.node] {
			continue // stale entry
		}
		lo, hi := int(s.off[it.node]), int(s.off[it.node+1])
		for w := lo >> 6; w<<6 < hi; w++ {
			m := s.enabled(w, lo, hi)
			for ; m != 0; m &= m - 1 {
				k := w<<6 | bits.TrailingZeros64(m)
				if s.link != nil {
					l := s.link[k]
					if s.resid != nil && !(s.resid[l] >= s.min) {
						continue
					}
					if aw := int(l >> 6); aw < len(s.avoid) && s.avoid[aw]&(1<<(uint32(l)&63)) != 0 {
						continue
					}
				}
				nd := it.dist + s.cost[k]
				to := NodeID(s.to[k])
				if nd < t.Dist[to] {
					t.Dist[to] = nd
					t.Parent[to] = s.eid[k]
					q.push(pqItem{node: to, dist: nd})
				}
			}
		}
	}
}

// Dijkstra computes single-source shortest paths from src using edge
// costs. Edges rejected by filter (or disabled) are not traversed.
func (g *Graph) Dijkstra(src NodeID, filter *LinkFilter) *ShortestTree {
	n := g.NumNodes()
	t := &ShortestTree{
		Source: src,
		Dist:   make([]float64, n),
		Parent: make([]EdgeID, n),
	}
	for i := range t.Dist {
		t.Dist[i] = math.Inf(1)
		t.Parent[i] = Undefined
	}
	t.Dist[src] = 0

	q := pqPool.Get().(*pq)
	dijkstraInto(g, src, filter, t, q)
	pqPool.Put(q)
	return t
}

// TreeRouter computes single-source shortest-path trees with reusable
// scratch (dist/parent/heap), avoiding per-call allocation across
// repeated runs on the same graph. Not safe for concurrent use; use
// one TreeRouter per goroutine.
type TreeRouter struct {
	g *Graph
	t ShortestTree
	q pq
}

// NewTreeRouter returns a reusable single-source engine bound to g.
func NewTreeRouter(g *Graph) *TreeRouter { return &TreeRouter{g: g} }

// Tree computes the shortest-path tree from src, identical to
// g.Dijkstra(src, filter). The returned tree shares the router's
// scratch buffers: it is valid only until the next Tree call and must
// not be retained.
func (tr *TreeRouter) Tree(src NodeID, filter *LinkFilter) *ShortestTree {
	n := tr.g.NumNodes()
	if cap(tr.t.Dist) < n {
		tr.t.Dist = make([]float64, n)
		tr.t.Parent = make([]EdgeID, n)
	}
	t := &tr.t
	t.Source = src
	t.Dist = t.Dist[:n]
	t.Parent = t.Parent[:n]
	for i := range t.Dist {
		t.Dist[i] = math.Inf(1)
		t.Parent[i] = Undefined
	}
	t.Dist[src] = 0
	dijkstraInto(tr.g, src, filter, t, &tr.q)
	return t
}

// ShortestPath returns the cheapest path from src to dst, or a path
// with infinite cost if none exists.
func (g *Graph) ShortestPath(src, dst NodeID, filter *LinkFilter) Path {
	if src == dst {
		return Path{}
	}
	return g.Dijkstra(src, filter).PathTo(g, dst)
}
