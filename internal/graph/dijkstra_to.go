package graph

import (
	"math"
	"math/bits"
)

// dijkstraScratch is reusable state for repeated point-to-point
// Dijkstra runs on the same graph, avoiding per-call allocation. It is
// not safe for concurrent use.
type dijkstraScratch struct {
	dist   []float64
	parent []EdgeID
	epoch  []uint32
	cur    uint32
	q      pq
}

// NewPointRouter returns a reusable point-to-point shortest-path
// engine bound to g's node count. The engine reads g's adjacency and
// disabled bits on every call, so edges added or (dis)abled between
// calls are honored; adding nodes is not.
func NewPointRouter(g *Graph) *PointRouter {
	n := g.NumNodes()
	return &PointRouter{
		g: g,
		s: dijkstraScratch{
			dist:   make([]float64, n),
			parent: make([]EdgeID, n),
			epoch:  make([]uint32, n),
		},
	}
}

// PointRouter computes point-to-point shortest paths with early
// termination and zero steady-state allocation. Not concurrency-safe.
type PointRouter struct {
	g *Graph
	s dijkstraScratch
}

// Path returns the cheapest src→dst path, or a path with +Inf cost if
// none exists. The returned path's Edges slice is freshly allocated
// and owned by the caller.
func (pr *PointRouter) Path(src, dst NodeID, filter *LinkFilter) Path {
	edges, cost := pr.PathInto(nil, src, dst, filter)
	return Path{Edges: edges, Cost: cost}
}

// PathInto is Path appending into a caller-provided buffer (typically
// scratch[:0] of a reused slice), so steady-state calls allocate
// nothing once the buffer has grown to the longest path seen. It
// returns the edge sequence and its cost; on an unreachable pair the
// buffer is returned unextended with +Inf cost, and src == dst yields
// an empty sequence at cost 0.
func (pr *PointRouter) PathInto(buf []EdgeID, src, dst NodeID, filter *LinkFilter) ([]EdgeID, float64) {
	if src == dst {
		return buf, 0
	}
	g := pr.g
	s := &pr.s
	s.cur++
	if s.cur == 0 {
		// Wraparound: a zero stamp would match every node never
		// visited since the scratch was made, so clear the stamps.
		for i := range s.epoch {
			s.epoch[i] = 0
		}
		s.cur = 1
	}
	cur := s.cur
	s.epoch[src] = cur
	s.dist[src] = 0
	s.parent[src] = Undefined
	sr := g.search(filter)
	s.q = append(s.q[:0], pqItem{node: src})
	for len(s.q) > 0 {
		it := s.q.pop()
		if it.dist > s.dist[it.node] {
			continue
		}
		if it.node == dst {
			break // settled: done
		}
		lo, hi := int(sr.off[it.node]), int(sr.off[it.node+1])
		for w := lo >> 6; w<<6 < hi; w++ {
			m := sr.enabled(w, lo, hi)
			for ; m != 0; m &= m - 1 {
				k := w<<6 | bits.TrailingZeros64(m)
				if sr.link != nil {
					l := sr.link[k]
					if sr.resid != nil && !(sr.resid[l] >= sr.min) {
						continue
					}
					if aw := int(l >> 6); aw < len(sr.avoid) && sr.avoid[aw]&(1<<(uint32(l)&63)) != 0 {
						continue
					}
				}
				// A stale epoch means "unvisited this run" (dist +Inf), so
				// the relaxation always takes that branch; otherwise the
				// usual strict improvement test applies.
				nd := it.dist + sr.cost[k]
				to := sr.to[k]
				if s.epoch[to] != cur {
					s.epoch[to] = cur
				} else if nd >= s.dist[to] {
					continue
				}
				s.dist[to] = nd
				s.parent[to] = sr.eid[k]
				s.q.push(pqItem{node: NodeID(to), dist: nd})
			}
		}
	}
	if s.epoch[dst] != cur || math.IsInf(s.dist[dst], 1) {
		return buf, math.Inf(1)
	}
	start := len(buf)
	for n := dst; n != src; {
		eid := s.parent[n]
		buf = append(buf, eid)
		n = NodeID(g.t.ends[eid].from)
	}
	rev := buf[start:]
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return buf, s.dist[dst]
}
