package graph

import (
	"math/bits"
	"sync"
)

// Unreachable is returned by distance queries when no path exists within
// the requested bound.
const Unreachable = int(^uint(0) >> 1) // max int

// Direction selects which adjacency a traversal follows.
type Direction uint8

const (
	// Forward follows out-edges (paths leaving the start node).
	Forward Direction = iota
	// Backward follows in-edges (paths arriving at the start node).
	Backward
	// Both ignores direction (undirected neighborhood exploration).
	Both
)

// NodeDist pairs a node with its BFS distance from a traversal origin.
type NodeDist struct {
	V NodeID
	D int32
}

// bfsScratch is an epoch-stamped visited array reused across BFS runs;
// clearing is O(1) per run (bump the stamp) instead of O(|V|). The
// queue is BallFirst's frontier, kept so repeated searches reuse it.
type bfsScratch struct {
	seen  []uint32
	stamp uint32
	queue []NodeID
}

var scratchPool = sync.Pool{New: func() interface{} { return &bfsScratch{} }}

func (g *Graph) scratch() *bfsScratch {
	sc := scratchPool.Get().(*bfsScratch)
	if len(sc.seen) < g.NumNodes() {
		sc.seen = make([]uint32, g.NumNodes())
		sc.stamp = 0
	}
	sc.stamp++
	if sc.stamp == 0 { // wrapped: hard reset
		for i := range sc.seen {
			sc.seen[i] = 0
		}
		sc.stamp = 1
	}
	return sc
}

// Ball returns every node within maxHops of v along the chosen
// direction with its BFS distance; the first entry is (v, 0) and
// entries appear in BFS order. The returned slice is freshly allocated
// and owned by the caller.
func (g *Graph) Ball(v NodeID, maxHops int, dir Direction) []NodeDist {
	g.ensure()
	sc := g.scratch()
	defer scratchPool.Put(sc)
	out := make([]NodeDist, 0, 16)
	out = append(out, NodeDist{V: v, D: 0})
	sc.seen[v] = sc.stamp
	start := 0
	for d := int32(1); d <= int32(maxHops); d++ {
		end := len(out)
		if start == end {
			break
		}
		for i := start; i < end; i++ {
			u := out[i].V
			if dir == Forward || dir == Both {
				for _, e := range g.outEdges[g.outOff[u]:g.outOff[u+1]] {
					if sc.seen[e.To] != sc.stamp {
						sc.seen[e.To] = sc.stamp
						out = append(out, NodeDist{V: e.To, D: d})
					}
				}
			}
			if dir == Backward || dir == Both {
				for _, e := range g.inEdges[g.inOff[u]:g.inOff[u+1]] {
					if sc.seen[e.To] != sc.stamp {
						sc.seen[e.To] = sc.stamp
						out = append(out, NodeDist{V: e.To, D: d})
					}
				}
			}
		}
		start = end
	}
	return out
}

// BallFirst returns, in Ball's BFS order, the first limit nodes within
// maxHops of v that carry the interned label (0, the wildcard, admits
// every node) and satisfy keep. The origin v is visited first, as in
// Ball. The search stops at the limit-th kept node, so the result
// equals filtering Ball's output and truncating it, without visiting
// the rest of the ball. keep is called only for nodes with the right
// label. The returned slice is freshly allocated and owned by the
// caller; it is nil when nothing is kept or limit < 1.
func (g *Graph) BallFirst(v NodeID, maxHops int, dir Direction, limit int, label int32, keep func(NodeID) bool) []NodeID {
	if limit < 1 {
		return nil
	}
	g.ensure()
	sc := g.scratch()
	defer scratchPool.Put(sc)
	var out []NodeID
	// visit reports whether the search is done.
	visit := func(u NodeID) bool {
		if (label == 0 || g.labels[u] == label) && keep(u) {
			out = append(out, u)
		}
		return len(out) >= limit
	}
	queue := append(sc.queue[:0], v)
	defer func() { sc.queue = queue[:0] }()
	sc.seen[v] = sc.stamp
	if visit(v) {
		return out
	}
	start := 0
	for d := 1; d <= maxHops && start < len(queue); d++ {
		end := len(queue)
		for i := start; i < end; i++ {
			u := queue[i]
			if dir == Forward || dir == Both {
				for _, e := range g.outEdges[g.outOff[u]:g.outOff[u+1]] {
					if sc.seen[e.To] != sc.stamp {
						sc.seen[e.To] = sc.stamp
						queue = append(queue, e.To)
						if visit(e.To) {
							return out
						}
					}
				}
			}
			if dir == Backward || dir == Both {
				for _, e := range g.inEdges[g.inOff[u]:g.inOff[u+1]] {
					if sc.seen[e.To] != sc.stamp {
						sc.seen[e.To] = sc.stamp
						queue = append(queue, e.To)
						if visit(e.To) {
							return out
						}
					}
				}
			}
		}
		start = end
	}
	return out
}

// msNode is one node's state in a multi-source search, one bit per
// source: the sources that have reached it, and those reaching it for
// the first time in the level being expanded.
type msNode struct {
	seen, next uint64
}

// nodeBits is a node with a set of sources: on the frontier, those it
// expands for; on the kept list, those that keep it.
type nodeBits struct {
	v    NodeID
	bits uint64
}

// msScratch is BallsFirst's reusable state. Only nodes on the touched
// list carry nonzero state and they are reset through it, so a call
// costs O(union of the balls), not O(|V|). keepState caches keep per
// node: 0 not asked yet, 1 kept, 2 rejected.
type msScratch struct {
	st        []msNode
	keepState []uint8
	touched   []NodeID
	level     []NodeID // nodes reached for the first time by some source in this level
	front     []nodeBits
	kept      []nodeBits
}

var msPool = sync.Pool{New: func() interface{} { return &msScratch{} }}

// reach records that the sources in bits arrive at x in the level being
// expanded; those that have been there already are ignored.
func (sc *msScratch) reach(x NodeID, bits uint64) {
	s := &sc.st[x]
	nb := bits &^ s.seen
	if nb == 0 {
		return
	}
	if s.seen == 0 {
		sc.touched = append(sc.touched, x)
	}
	if s.next == 0 {
		sc.level = append(sc.level, x)
	}
	s.next |= nb
	s.seen |= nb
}

// BallsFirst runs one undirected BFS of radius maxHops from up to 64
// sources at once (Then et al., "The More the Merrier", PVLDB 2014):
// every node carries one bit per source, so a node reached by several
// sources is expanded once per level for all of them. sets[i] holds,
// in discovery order, the nodes within maxHops of srcs[i], other than
// srcs[i] itself, that carry the interned label (0 admits every node)
// and satisfy keep. keep is called at most once per reached node, and
// only for nodes with the right label.
//
// A source whose kept count passes limit is dropped from the search at
// the end of that level: its bit is set in over and its set is nil.
// Every other set is the whole filtered ball, exactly the set
// BallFirst(srcs[i], maxHops, Both, limit, label, p != srcs[i] &&
// keep(p)) returns; only above the cap does BallFirst's BFS order
// decide which nodes it keeps. The sets share one freshly allocated
// backing array; each is nil when empty.
//
// invariant: callers pass at most 64 sources, one bit of a mask each;
// more is a caller bug, and BallsFirst panics on it.
func (g *Graph) BallsFirst(srcs []NodeID, maxHops, limit int, label int32, keep func(NodeID) bool) (sets [][]NodeID, over uint64) {
	if len(srcs) > 64 {
		panic("graph: BallsFirst takes at most 64 sources")
	}
	if len(srcs) == 0 {
		return nil, 0
	}
	g.ensure()
	sc := msPool.Get().(*msScratch)
	defer msPool.Put(sc)
	if n := g.NumNodes(); len(sc.st) < n {
		sc.st = make([]msNode, n)
		sc.keepState = make([]uint8, n)
	}
	defer func() {
		for _, x := range sc.touched {
			sc.st[x] = msNode{}
			sc.keepState[x] = 0
		}
		sc.touched, sc.level, sc.front, sc.kept = sc.touched[:0], sc.level[:0], sc.front[:0], sc.kept[:0]
	}()

	var count [64]int
	active := ^uint64(0) >> (64 - len(srcs))
	for i, s := range srcs {
		sc.reach(s, 1<<i)
	}
	for d := 0; ; d++ {
		// Close the level: keep its new nodes for the sources that
		// reached them, then make them the next frontier.
		sc.front = sc.front[:0]
		for _, x := range sc.level {
			reached := sc.st[x].next
			sc.st[x].next = 0
			if keepers := reached & active; d > 0 && keepers != 0 && (label == 0 || g.labels[x] == label) {
				if sc.keepState[x] == 0 {
					sc.keepState[x] = 2
					if keep(x) {
						sc.keepState[x] = 1
					}
				}
				if sc.keepState[x] == 1 {
					sc.kept = append(sc.kept, nodeBits{v: x, bits: keepers})
					for b := keepers; b != 0; b &= b - 1 {
						i := bits.TrailingZeros64(b)
						if count[i]++; count[i] > limit {
							over |= 1 << i
							active &^= 1 << i
						}
					}
				}
			}
			if d < maxHops {
				sc.front = append(sc.front, nodeBits{v: x, bits: reached})
			}
		}
		sc.level = sc.level[:0]
		if d == maxHops || len(sc.front) == 0 || active == 0 {
			break
		}
		for _, f := range sc.front {
			b := f.bits & active
			if b == 0 {
				continue
			}
			for _, e := range g.outEdges[g.outOff[f.v]:g.outOff[f.v+1]] {
				sc.reach(e.To, b)
			}
			for _, e := range g.inEdges[g.inOff[f.v]:g.inOff[f.v+1]] {
				sc.reach(e.To, b)
			}
		}
	}

	// Lay the surviving sets out in one backing array, in discovery
	// order.
	sets = make([][]NodeID, len(srcs))
	total := 0
	for i := range srcs {
		if over&(1<<i) == 0 {
			total += count[i]
		}
	}
	arena := make([]NodeID, total)
	for i := range srcs {
		if over&(1<<i) == 0 && count[i] > 0 {
			sets[i] = arena[:0:count[i]]
			arena = arena[count[i]:]
		}
	}
	for _, k := range sc.kept {
		for b := k.bits &^ over; b != 0; b &= b - 1 {
			i := bits.TrailingZeros64(b)
			sets[i] = append(sets[i], k.v)
		}
	}
	return sets, over
}

// Dist returns the length of the shortest directed path from → to,
// searching at most maxHops hops. It returns Unreachable when no such
// path exists. Dist(v, v, _) is 0.
func (g *Graph) Dist(from, to NodeID, maxHops int) int {
	if from == to {
		return 0
	}
	if maxHops <= 0 {
		return Unreachable
	}
	g.ensure()
	sc := g.scratch()
	defer scratchPool.Put(sc)
	queue := make([]NodeID, 0, 16)
	queue = append(queue, from)
	sc.seen[from] = sc.stamp
	start := 0
	for d := 1; d <= maxHops; d++ {
		end := len(queue)
		if start == end {
			return Unreachable
		}
		for i := start; i < end; i++ {
			for _, e := range g.outEdges[g.outOff[queue[i]]:g.outOff[queue[i]+1]] {
				if sc.seen[e.To] == sc.stamp {
					continue
				}
				if e.To == to {
					return d
				}
				sc.seen[e.To] = sc.stamp
				queue = append(queue, e.To)
			}
		}
		start = end
	}
	return Unreachable
}

// eccentricity runs a full undirected BFS from v and returns the largest
// finite distance reached along with a node at that distance.
func (g *Graph) eccentricity(v NodeID) (int, NodeID) {
	ball := g.Ball(v, g.NumNodes(), Both)
	last := ball[len(ball)-1]
	return int(last.D), last.V
}

// Diameter returns an estimate of D(G), the diameter of the graph viewed
// undirected, computed by the double-sweep heuristic (exact on trees,
// a lower bound in general; the paper uses D(G) only to normalize
// edge-bound operator costs). The estimate is cached until the graph
// mutates, and is at least 1 on nonempty graphs so cost normalization
// never divides by zero.
//
// The BFS sweeps run outside lazyMu: Ball calls ensure, which takes the
// same mutex when the graph is dirty, so holding it across the sweeps
// would self-deadlock. Concurrent first callers may each compute the
// estimate; every computation over the same (immutable-while-read)
// graph yields the same value, so the racing stores agree.
func (g *Graph) Diameter() int {
	g.ensure()
	g.lazyMu.Lock()
	d := g.diam
	g.lazyMu.Unlock()
	if d >= 0 {
		return d
	}
	n := g.NumNodes()
	best := 1
	if n > 0 {
		// Double sweep: BFS from a few arbitrary seeds, then from the
		// farthest node each finds; the second sweep's eccentricity is
		// the classic double-sweep lower bound (exact on trees).
		seeds := []NodeID{0, NodeID(n / 2), NodeID(n - 1)}
		for _, s := range seeds {
			e1, far := g.eccentricity(s)
			if e1 > best {
				best = e1
			}
			e2, _ := g.eccentricity(far)
			if e2 > best {
				best = e2
			}
		}
	}
	g.lazyMu.Lock()
	// Keep whichever estimate landed first unless a mutation reset the
	// cache in between; all writers computed the same number anyway.
	if g.diam < 0 {
		g.diam = best
	}
	d = g.diam
	g.lazyMu.Unlock()
	return d
}
