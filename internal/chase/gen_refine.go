package chase

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"strings"

	"wqe/internal/graph"
	"wqe/internal/match"
	"wqe/internal/ops"
	"wqe/internal/query"
)

// partnerMap caches, per pattern node, the candidate partners of every
// focus match: nodes that could serve as h(u) in a valuation sending
// the focus to that match. Partner sets are distance-based
// overestimates (candidates of u within the pattern distance of the
// focus match, ignoring direction), which is exactly the quality the
// paper's pickiness estimates need: "no partner satisfies" certifies
// removal, "some partner satisfies" certifies nothing.
type partnerMap struct {
	w *Why
	q *query.Query
	// Per pattern node: the BFS radius PatternDist(u_o, u), capped at
	// maxPartnerHops (ball sizes explode on power-law graphs); the
	// interned matching signature, the Why-level cache key component;
	// and the compiled candidate check.
	pd    []int
	sig   []int32
	check []query.NodeCheck
}

// maxPartnerHops bounds partner exploration; beyond it partner sets
// stop being overestimates, so the cap stays generous relative to the
// b_m·|E_Q| pattern radii of real queries.
const maxPartnerHops = 4

// maxPartnersScored caps how many partners a scored set keeps: hub
// nodes otherwise blow up the per-operator estimation loops. The
// certainty estimates degrade gracefully (they are ranking heuristics,
// not correctness guards).
const maxPartnersScored = 96

// partnerCacheKey identifies a partner set: focus match, radius, and
// the pattern node's interned matching signature.
type partnerCacheKey struct {
	v   graph.NodeID
	pd  int
	sig int32
}

func newPartnerMap(w *Why, q *query.Query) *partnerMap {
	n := len(q.Nodes)
	pm := &partnerMap{w: w, q: q,
		pd:    make([]int, n),
		sig:   make([]int32, n),
		check: make([]query.NodeCheck, n)}
	for ui, nd := range q.Nodes {
		u := query.NodeID(ui)
		d := q.PatternDist(q.Focus, u)
		if d == graph.Unreachable || d > maxPartnerHops {
			d = maxPartnerHops
		}
		pm.pd[u] = d
		parts := make([]string, 0, len(nd.Literals)+1)
		parts = append(parts, nd.Label)
		for _, l := range nd.Literals {
			parts = append(parts, l.String())
		}
		sort.Strings(parts[1:])
		sig := strings.Join(parts, "|")
		id, ok := w.partnerSigs[sig]
		if !ok {
			id = int32(len(w.partnerSigs))
			w.partnerSigs[sig] = id
		}
		pm.sig[u] = id
		pm.check[u] = q.Check(w.G, u)
	}
	return pm
}

// partnerReq asks for the partner set of focus match v at pattern
// node u.
type partnerReq struct {
	v graph.NodeID
	u query.NodeID
}

// appendReqs appends a request for every match of vs at u, in vs's
// order.
func appendReqs(reqs []partnerReq, vs []graph.NodeID, u query.NodeID) []partnerReq {
	for _, v := range vs {
		reqs = append(reqs, partnerReq{v: v, u: u})
	}
	return reqs
}

// partnerSets returns the candidate partners of each request, in
// request order: the first maxPartnersScored candidates of u in BFS
// order from v, sorted (at the focus, v itself). Sets are memoized on
// the Why across chase states: they depend only on v, u's matching
// signature, and the radius. Stats count a hit or a BFS run per
// request exactly as one lookup per request, in order, would. The
// missing sets are computed on the worker pool, one multi-source BFS
// per chunk of at most 64 requests at one pattern node, and inserted
// into the memo here, on the algorithm goroutine, in request order.
func (pm *partnerMap) partnerSets(reqs []partnerReq) [][]graph.NodeID {
	w := pm.w
	out := make([][]graph.NodeID, len(reqs))
	// The focus's own sets share one backing array.
	focus := 0
	for _, r := range reqs {
		if r.u == pm.q.Focus {
			focus++
		}
	}
	self := make([]graph.NodeID, 0, focus)
	// missing lists the requests whose set needs a BFS, one per key.
	var missing []partnerReq
	w.refine.pending = cleared(w.refine.pending)
	pending := w.refine.pending
	for i, r := range reqs {
		if r.u == pm.q.Focus {
			self = append(self, r.v)
			out[i] = self[len(self)-1 : len(self) : len(self)]
			continue
		}
		key := pm.key(r)
		if p, ok := w.partnerCache[key]; ok {
			w.Stats.PartnerHits++
			out[i] = p
			continue
		}
		if pending[key] {
			w.Stats.PartnerHits++
			continue
		}
		pending[key] = true
		missing = append(missing, r)
		w.Stats.PartnerSets++
	}
	if len(missing) == 0 {
		return out
	}
	sets := make([][]graph.NodeID, len(missing))
	chunks, order := chunkByNode(missing)
	g := w.G
	w.fanOut(len(missing), len(chunks), func(c int) {
		idx := order[chunks[c].from:chunks[c].to]
		u := missing[idx[0]].u
		check := &pm.check[u]
		label, live := check.LabelID()
		if !live {
			return
		}
		var buf [64]graph.NodeID
		srcs := buf[:len(idx)]
		for j, m := range idx {
			srcs[j] = missing[m].v
		}
		balls, over := g.BallsFirst(srcs, pm.pd[u], maxPartnersScored, label,
			func(p graph.NodeID) bool { return check.Candidate(g, p) })
		for j, m := range idx {
			if over&(1<<j) == 0 {
				sets[m] = sortNodes(balls[j])
				continue
			}
			// Over the cap, BFS order decides which partners are kept.
			v := srcs[j]
			sets[m] = sortNodes(g.BallFirst(v, pm.pd[u], graph.Both, maxPartnersScored, label,
				func(p graph.NodeID) bool { return p != v && check.Candidate(g, p) }))
		}
	})
	for i, r := range missing {
		w.partnerCache[pm.key(r)] = sets[i]
	}
	for i, r := range reqs {
		if out[i] == nil && r.u != pm.q.Focus {
			out[i] = w.partnerCache[pm.key(r)]
		}
	}
	return out
}

// span is the half-open range [from, to) of an index list.
type span struct{ from, to int }

// chunkByNode groups the requests by pattern node, each group in
// request order, and splits every group into near-equal chunks of at
// most 64 requests, one multi-source BFS each. order lists request
// indices group by group; each chunk is a span of it.
func chunkByNode(reqs []partnerReq) (chunks []span, order []int) {
	order = make([]int, len(reqs))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(reqs[a].u, reqs[b].u) })
	for from := 0; from < len(order); {
		to := from + 1
		for to < len(order) && reqs[order[to]].u == reqs[order[from]].u {
			to++
		}
		k := (to - from + 63) / 64
		for c := 0; c < k; c++ {
			chunks = append(chunks, span{from + (to-from)*c/k, from + (to-from)*(c+1)/k})
		}
		from = to
	}
	return chunks, order
}

func (pm *partnerMap) key(r partnerReq) partnerCacheKey {
	return partnerCacheKey{v: r.v, pd: pm.pd[r.u], sig: pm.sig[r.u]}
}

// minFanOut is the smallest batch GenRefine hands to the worker pool.
// Its items (one partner BFS, one candidate's removal scan) take
// microseconds, and waking a helper goroutine on an idle core can take
// longer than a small batch: on a 2-vCPU VM, ask-large batches under
// 16 items ran slower fanned out than inline, and larger ones faster.
const minFanOut = 16

// fanOut runs fn over [0, n) on the worker pool, or inline when the
// batch, items of work in all, is too small to pay for waking a helper.
func (w *Why) fanOut(items, n int, fn func(i int)) {
	workers := w.workers()
	if items < minFanOut {
		workers = 1
	}
	w.forEach(workers, n, fn)
}

// refineCand is a refinement operator awaiting its removal estimate:
// keep reports whether a partner still satisfies the refined pattern
// node op.U.
type refineCand struct {
	op   ops.Op
	keep func(graph.NodeID) bool
}

// scoreRefine offers cands to add, in order, each with the IM and RM
// matches it certainly removes: those none of whose partners at op.U
// satisfy keep. Every candidate reads each match's partner set at its
// node once. The sets of each node are looked up once (computed if
// missing) and the later reads counted as memo hits, so Stats equal
// one lookup per read. The per-candidate scans run on the worker pool
// and read only the looked-up slices.
func (w *Why) scoreRefine(pm *partnerMap, im, rm []graph.NodeID, cands []refineCand,
	add func(ops.Op, int, []graph.NodeID, []graph.NodeID)) {

	if len(cands) == 0 {
		return
	}
	// The refined nodes in first-candidate order, with their candidate
	// counts and the offset of their sets (IM then RM) in sets.
	count := make([]int, len(pm.q.Nodes))
	var nodes []query.NodeID
	for _, c := range cands {
		if count[c.op.U] == 0 {
			nodes = append(nodes, c.op.U)
		}
		count[c.op.U]++
	}
	base := make([]int, len(pm.q.Nodes))
	reqs := make([]partnerReq, 0, len(nodes)*(len(im)+len(rm)))
	for _, u := range nodes {
		base[u] = len(reqs)
		reqs = appendReqs(appendReqs(reqs, im, u), rm, u)
	}
	sets := pm.partnerSets(reqs)
	for u, n := range count {
		if n > 1 && query.NodeID(u) != pm.q.Focus {
			w.Stats.PartnerHits += (n - 1) * (len(im) + len(rm))
		}
	}
	type removal struct{ im, rm []graph.NodeID }
	removed := make([]removal, len(cands))
	w.fanOut(len(cands), len(cands), func(i int) {
		c := &cands[i]
		b := base[c.op.U]
		removed[i] = removal{
			im: lostAll(im, sets[b:b+len(im)], c.keep),
			rm: lostAll(rm, sets[b+len(im):b+len(im)+len(rm)], c.keep),
		}
	})
	for i, c := range cands {
		add(c.op, -1, removed[i].im, removed[i].rm)
	}
}

// lostAll returns the matches of vs none of whose partner sets (sets[i]
// for vs[i]) has a member satisfying keep, in vs's order.
func lostAll(vs []graph.NodeID, sets [][]graph.NodeID, keep func(graph.NodeID) bool) []graph.NodeID {
	var out []graph.NodeID
next:
	for i, v := range vs {
		for _, p := range sets[i] {
			if keep(p) {
				continue next
			}
		}
		out = append(out, v)
	}
	return out
}

// GenRefine implements GenRf (§5.3 + Appendix B): it derives picky
// refinement operators (AddL, RfL, RfE, AddE) from the neighborhoods of
// relevant matches and scores each by
// p'(o) = (λ·|IM̄(o)| − Σ_{v∈RM̲(o)} cl(v,E)) / |V_{u_o}|, where IM̄ is
// the certainly-removed irrelevant-match set and RM̲ the
// certainly-removed relevant-match set under partner overestimation.
func (w *Why) GenRefine(q *query.Query, res *match.Result, used map[string]bool, budgetLeft float64) []scoredOp {
	rm, im, _, _ := w.Partition(res)
	if len(im) == 0 {
		return nil
	}
	// Neighborhood analysis is per-node bounded BFS; cap both sets
	// (highest closeness first) to keep generation within bounded delay.
	rm = sampleByCl(w, rm, w.Cfg.MaxAnalysis)
	im = sampleByCl(w, im, w.Cfg.MaxAnalysis)
	pm := newPartnerMap(w, q)

	acc := map[opIdent]*accum{}
	add := func(o ops.Op, pickyEdge int, removedIM []graph.NodeID, removedRM []graph.NodeID) {
		if len(removedIM) == 0 {
			return // no hope of improving closeness
		}
		if !o.Applicable(q, w.params) || o.Cost(w.G) > budgetLeft {
			return
		}
		key := identOf(o)
		if acc[key] != nil {
			return
		}
		var rmLoss float64
		for _, v := range removedRM {
			rmLoss += w.Eval.Cl(v)
		}
		a := &accum{op: scoredOp{Op: o, PickyEdge: pickyEdge}, gain: map[graph.NodeID]bool{}}
		for _, v := range removedIM {
			a.gain[v] = true
		}
		a.total = w.Cfg.Lambda*float64(len(removedIM)) - rmLoss
		acc[key] = a
	}

	cands := w.genAddL(q, rm, pm, used)
	cands = append(cands, w.genRfL(q, rm, pm, used)...)
	w.scoreRefine(pm, im, rm, cands, add)
	w.genRfE(q, rm, im, used, add)
	w.genAddE(q, rm, im, used, add)

	return w.finishScoredRefine(acc)
}

// genAddL: for each pattern node u and attribute value carried by an
// RM-supporting match of u and not yet constrained in F_Q(u), propose
// AddL(u, A = a) hoping irrelevant matches fail it. Values rank by how
// many RM partners carry them, ties broken by the key "A=a#kind"; a
// key's literal carries the value seen last under it.
func (w *Why) genAddL(q *query.Query, rm []graph.NodeID, pm *partnerMap, used map[string]bool) []refineCand {
	reqs := make([]partnerReq, 0, len(q.Nodes)*len(rm))
	for ui := range q.Nodes {
		reqs = appendReqs(reqs, rm, query.NodeID(ui))
	}
	sets := pm.partnerSets(reqs)
	var out []refineCand
	for ui := range q.Nodes {
		out = append(out, w.addLCands(q, query.NodeID(ui), sets[ui*len(rm):(ui+1)*len(rm)], used)...)
	}
	return out
}

// exactVal identifies an attribute value bit for bit: float keys
// would merge -0 with +0 and never find a NaN again.
type exactVal struct {
	aid  int32
	kind graph.ValueKind
	bits uint64
	str  string
}

type valueCount struct {
	aid         int32
	val         graph.Value
	count, last int
}

// valueClass is one ranking key with its summed count and the value
// seen last among the exact values rendering to it.
type valueClass struct {
	key string
	valueCount
}

// addLPartner is a distinct RM partner in addLCands' scan: its number
// of counted tuple entries, how many RM sets contain it, and where its
// last occurrence starts in the full scan.
type addLPartner struct {
	v                     graph.NodeID
	width, mult, lastFrom int
}

// refineScratch holds the maps and slices GenRefine rebuilds for every
// batch and pattern node. The algorithm goroutine alone runs GenRefine,
// so one set per Why is reused, cleared, instead of allocated afresh.
type refineScratch struct {
	pending   map[partnerCacheKey]bool
	partIndex map[graph.NodeID]int
	parts     []addLPartner
	index     map[exactVal]int
	counts    []valueCount
	classOf   map[string]int
	classes   []valueClass
}

// cleared returns m emptied, or a new map when m is nil.
func cleared[K comparable, V any](m map[K]V) map[K]V {
	if m == nil {
		return map[K]V{}
	}
	clear(m)
	return m
}

// addLCands ranks the values the RM partner sets rmSets carry at u and
// returns genAddL's candidates for u.
func (w *Why) addLCands(q *query.Query, u query.NodeID, rmSets [][]graph.NodeID, used map[string]bool) []refineCand {
	const maxValuesPerAttr = 6
	sc := &w.refine
	numAttrs := w.G.Attrs.Len()
	// Count exact attribute values over RM partners at u. skip holds,
	// per attribute id, 0 (undecided), 1 (counted) or 2 (already
	// constrained in F_Q(u) or a used target).
	skip := make([]int8, numAttrs)
	counted := func(aid int32) bool {
		if skip[aid] == 0 {
			attr := w.G.Attrs.Name(aid)
			skip[aid] = 1
			if q.FindLiteral(u, attr, graph.EQ) >= 0 || used[litTarget(u, attr)] {
				skip[aid] = 2
			}
		}
		return skip[aid] == 1
	}
	// The RM partner sets overlap, so the scan visits each distinct
	// partner once. A value's count sums the multiplicities of the
	// partners carrying it; its position in the full scan (counted
	// entries only) is the start of its partner's last occurrence plus
	// its rank among the partner's counted entries.
	sc.partIndex = cleared(sc.partIndex)
	parts, partIndex := sc.parts[:0], sc.partIndex
	scanned := 0
	for _, ps := range rmSets {
		for _, p := range ps {
			i, ok := partIndex[p]
			if !ok {
				i = len(parts)
				partIndex[p] = i
				width := 0
				for _, t := range w.G.Tuple(p) {
					if counted(t.Attr) {
						width++
					}
				}
				parts = append(parts, addLPartner{v: p, width: width})
			}
			parts[i].mult++
			parts[i].lastFrom = scanned
			scanned += parts[i].width
		}
	}
	sc.parts = parts
	sc.index = cleared(sc.index)
	index, counts := sc.index, sc.counts[:0]
	for _, pt := range parts {
		rank := 0
		for _, t := range w.G.Tuple(pt.v) {
			if skip[t.Attr] != 1 {
				continue
			}
			rank++
			k := exactVal{aid: t.Attr, kind: t.Val.Kind, bits: math.Float64bits(t.Val.Num), str: t.Val.Str}
			i, ok := index[k]
			if !ok {
				i = len(counts)
				index[k] = i
				counts = append(counts, valueCount{aid: t.Attr, val: t.Val})
			}
			c := &counts[i]
			c.count += pt.mult
			if last := pt.lastFrom + rank; last > c.last {
				c.last = last
			}
		}
	}
	// Merge exact values into ranking keys, rendered once each.
	sc.counts = counts
	sc.classOf = cleared(sc.classOf)
	classOf, classes := sc.classOf, sc.classes[:0]
	for _, c := range counts {
		key := w.G.Attrs.Name(c.aid) + "=" + c.val.String() + kindOf(c.val)
		i, ok := classOf[key]
		if !ok {
			i = len(classes)
			classOf[key] = i
			classes = append(classes, valueClass{key: key})
		}
		cl := &classes[i]
		cl.count += c.count
		if c.last > cl.last {
			cl.aid, cl.val, cl.last = c.aid, c.val, c.last
		}
	}
	sc.classes = classes
	sort.Slice(classes, func(i, j int) bool {
		if classes[i].count != classes[j].count {
			return classes[i].count > classes[j].count
		}
		return classes[i].key < classes[j].key
	})
	perAttr := make([]int, numAttrs)
	var cands []refineCand
	for _, c := range classes {
		if perAttr[c.aid] >= maxValuesPerAttr {
			continue
		}
		perAttr[c.aid]++
		lit := query.Literal{Attr: w.G.Attrs.Name(c.aid), Op: graph.EQ, Val: c.val}
		cands = append(cands, refineCand{
			op:   ops.Op{Kind: ops.AddL, U: u, Lit: lit},
			keep: w.litCheck(c.aid, lit),
		})
	}
	return cands
}

// litCheck returns lit's predicate on nodes, with lit's attribute
// already resolved to aid.
func (w *Why) litCheck(aid int32, lit query.Literal) func(graph.NodeID) bool {
	return func(p graph.NodeID) bool {
		val, ok := w.G.AttrByID(p, aid)
		return ok && lit.Op.Holds(val, lit.Val)
	}
}

func kindOf(v graph.Value) string {
	if v.Kind == graph.Number {
		return "#n"
	}
	return "#s"
}

// genRfL: tighten existing numeric literals toward the RM-supporting
// values (Appendix B rules, using ≤/≥ so the nearest relevant value
// keeps matching).
func (w *Why) genRfL(q *query.Query, rm []graph.NodeID, pm *partnerMap, used map[string]bool) []refineCand {
	const maxValues = 6
	// Each tightened literal ranks RM-supporting values over the RM
	// partner sets of its node.
	type target struct {
		u query.NodeID
		l query.Literal
	}
	var targets []target
	for ui := range q.Nodes {
		u := query.NodeID(ui)
		for _, l := range q.Nodes[u].Literals {
			if l.Val.Kind != graph.Number || used[litTarget(u, l.Attr)] {
				continue
			}
			targets = append(targets, target{u: u, l: l})
		}
	}
	reqs := make([]partnerReq, 0, len(targets)*len(rm))
	for _, t := range targets {
		reqs = appendReqs(reqs, rm, t.u)
	}
	sets := pm.partnerSets(reqs)
	var cands []refineCand
	for ti, t := range targets {
		u, l := t.u, t.l
		aid, ok := w.G.Attrs.Lookup(l.Attr)
		if !ok {
			continue // no node carries the attribute: nothing to tighten toward
		}
		// RM-supporting values of this attribute at u.
		var vals []float64
		seen := map[float64]bool{}
		for _, ps := range sets[ti*len(rm) : (ti+1)*len(rm)] {
			for _, p := range ps {
				if val, ok := w.G.AttrByID(p, aid); ok && val.Kind == graph.Number {
					if !seen[val.Num] {
						seen[val.Num] = true
						vals = append(vals, val.Num)
					}
				}
			}
		}
		sort.Float64s(vals)
		gen := func(newLit query.Literal) {
			cands = append(cands, refineCand{
				op:   ops.Op{Kind: ops.RfL, U: u, Lit: l, NewLit: newLit},
				keep: w.litCheck(aid, newLit),
			})
		}
		switch l.Op {
		case graph.LE, graph.LT:
			// Tighten the upper bound down toward RM values, largest
			// first (loses no RM support), then a few tighter steps.
			count := 0
			for i := len(vals) - 1; i >= 0 && count < maxValues; i-- {
				if a := vals[i]; a < l.Val.Num {
					gen(query.Literal{Attr: l.Attr, Op: graph.LE, Val: graph.N(a)})
					count++
				}
			}
		case graph.GE, graph.GT:
			count := 0
			for i := 0; i < len(vals) && count < maxValues; i++ {
				if a := vals[i]; a > l.Val.Num {
					gen(query.Literal{Attr: l.Attr, Op: graph.GE, Val: graph.N(a)})
					count++
				}
			}
		}
	}
	return cands
}

// genRfE: tighten edge bounds by one (Appendix B: RfE(e, b, b−1)).
// Removal certainty is computed for focus-incident edges via the
// distance oracle; deeper edges are generated with the irrelevant
// matches that lack any partner within the tightened bound along the
// pattern distance.
func (w *Why) genRfE(q *query.Query, rm, im []graph.NodeID,
	used map[string]bool,
	add func(ops.Op, int, []graph.NodeID, []graph.NodeID)) {

	for ei, e := range q.Edges {
		if e.Bound <= 1 || used[edgeTarget(e.From, e.To)] {
			continue
		}
		o := ops.Op{Kind: ops.RfE, U: e.From, U2: e.To, Bound: e.Bound, NewBound: e.Bound - 1}
		var other query.NodeID
		var out bool
		switch q.Focus {
		case e.From:
			other, out = e.To, true
		case e.To:
			other, out = e.From, false
		default:
			// Non-focus edge: generate with the full IM set as the
			// (over-)estimated removal; certainty is unavailable locally.
			add(o, ei, im, nil)
			continue
		}
		dir := graph.Forward
		if !out {
			dir = graph.Backward
		}
		check := q.Check(w.G, other)
		label, live := check.LabelID()
		// certainlyCut reports that no candidate of the other endpoint
		// lies within the tightened bound: the search stops at the first.
		certainlyCut := func(v graph.NodeID) bool {
			return !live || w.G.BallFirst(v, e.Bound-1, dir, 1, label,
				func(p graph.NodeID) bool { return p != v && check.Candidate(w.G, p) }) == nil
		}
		var imOut, rmOut []graph.NodeID
		for _, v := range im {
			if certainlyCut(v) {
				imOut = append(imOut, v)
			}
		}
		for _, v := range rm {
			if certainlyCut(v) {
				rmOut = append(rmOut, v)
			}
		}
		add(o, ei, imOut, rmOut)
	}
}

// genAddE: add edges from the focus to existing pattern nodes or to a
// fresh labeled node, with a bound large enough that every relevant
// match keeps a partner (Appendix B AddE rules, restricted to the focus
// per DESIGN.md §6).
func (w *Why) genAddE(q *query.Query, rm, im []graph.NodeID,
	used map[string]bool,
	add func(ops.Op, int, []graph.NodeID, []graph.NodeID)) {

	if len(rm) == 0 {
		return
	}
	focus := q.Focus
	bm := w.Cfg.MaxBound

	// nearest returns the hop distance from v to the nearest node
	// satisfying pred, within bm, in the given direction. Balls are
	// memoized per (node, direction) — AddE generation probes the same
	// neighborhoods for many predicates.
	type ballKey struct {
		v   graph.NodeID
		dir graph.Direction
	}
	ballMemo := map[ballKey][]graph.NodeDist{}
	ballOf := func(v graph.NodeID, dir graph.Direction) []graph.NodeDist {
		k := ballKey{v, dir}
		if b, ok := ballMemo[k]; ok {
			return b
		}
		b := w.G.Ball(v, bm, dir)
		ballMemo[k] = b
		return b
	}
	nearest := func(v graph.NodeID, dir graph.Direction, pred func(graph.NodeID) bool) int {
		for _, nd := range ballOf(v, dir) {
			if nd.D > 0 && pred(nd.V) {
				return int(nd.D) // BFS order: first hit is nearest
			}
		}
		return graph.Unreachable
	}

	// (1) Existing pattern nodes not yet adjacent to the focus.
	for ui := range q.Nodes {
		u := query.NodeID(ui)
		if u == focus || q.FindEdge(focus, u) >= 0 || q.FindEdge(u, focus) >= 0 {
			continue
		}
		if used[edgeTarget(focus, u)] && used[edgeTarget(u, focus)] {
			continue
		}
		isCand := func(nb graph.NodeID) bool { return q.IsCandidate(w.G, u, nb) }
		for _, dir := range []graph.Direction{graph.Forward, graph.Backward} {
			k := 0
			feasible := true
			for _, vrm := range rm {
				d := nearest(vrm, dir, isCand)
				if d == graph.Unreachable {
					feasible = false
					break
				}
				if d > k {
					k = d
				}
			}
			if !feasible || k < 1 || k > bm {
				continue
			}
			var o ops.Op
			if dir == graph.Forward {
				o = ops.Op{Kind: ops.AddE, U: focus, U2: u, Bound: k}
			} else {
				o = ops.Op{Kind: ops.AddE, U: u, U2: focus, Bound: k}
			}
			var imOut []graph.NodeID
			for _, v := range im {
				if nearest(v, dir, isCand) > k {
					imOut = append(imOut, v)
				}
			}
			add(o, -1, imOut, nil)
		}
	}

	// (2) Fresh labeled node adjacent to the focus: collect labels near
	// relevant matches, keep those every RM can reach, rank by how many
	// irrelevant matches lack them.
	type labelInfo struct {
		k        int
		feasible bool
	}
	sortedIDs := func(m map[int32]*labelInfo) []int32 {
		ids := make([]int32, 0, len(m))
		for lid := range m {
			ids = append(ids, lid)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		return ids
	}
	labels := map[int32]*labelInfo{}
	for i, vrm := range rm {
		found := map[int32]int{}
		for _, nd := range ballOf(vrm, graph.Forward) {
			if nd.D == 0 {
				continue
			}
			lid := w.G.LabelID(nd.V)
			if _, ok := found[lid]; !ok {
				found[lid] = int(nd.D) // BFS order: first is nearest
			}
		}
		if i == 0 {
			foundIDs := make([]int32, 0, len(found))
			for lid := range found {
				foundIDs = append(foundIDs, lid)
			}
			sort.Slice(foundIDs, func(a, b int) bool { return foundIDs[a] < foundIDs[b] })
			for _, lid := range foundIDs {
				labels[lid] = &labelInfo{k: found[lid], feasible: true}
			}
			continue
		}
		for _, lid := range sortedIDs(labels) {
			info := labels[lid]
			d, ok := found[lid]
			if !ok {
				info.feasible = false
				continue
			}
			if d > info.k {
				info.k = d
			}
		}
	}
	const maxNewLabels = 8
	generated := 0
	for _, lid := range sortedIDs(labels) {
		if generated >= maxNewLabels {
			break
		}
		info := labels[lid]
		if !info.feasible {
			continue
		}
		name := w.G.Labels.Name(lid)
		if name == "" {
			continue
		}
		hasLabel := func(nb graph.NodeID) bool { return w.G.LabelID(nb) == lid }
		var imOut []graph.NodeID
		for _, v := range im {
			if nearest(v, graph.Forward, hasLabel) > info.k {
				imOut = append(imOut, v)
			}
		}
		if len(imOut) == 0 {
			continue
		}
		add(ops.Op{Kind: ops.AddE, U: focus, Bound: info.k,
			NewNode: &ops.NewNodeSpec{Label: name}}, -1, imOut, nil)
		generated++
	}
}

// finishScoredRefine mirrors finishScored but keeps the already-computed
// p' totals (which mix IM gain and RM loss).
func (w *Why) finishScoredRefine(acc map[opIdent]*accum) []scoredOp {
	out := make([]scoredOp, 0, len(acc))
	keys := make([]opIdent, 0, len(acc))
	for k := range acc {
		keys = append(keys, k)
	}
	sortIdents(keys)
	nf := float64(len(w.FocusCands))
	for _, k := range keys {
		a := acc[k]
		a.op.Pick = a.total / nf
		a.op.Cost = a.op.Op.Cost(w.G)
		a.op.Gain = make([]graph.NodeID, 0, len(a.gain))
		for v := range a.gain {
			a.op.Gain = append(a.op.Gain, v)
		}
		sortNodes(a.op.Gain)
		out = append(out, a.op)
	}
	sort.SliceStable(out, func(i, j int) bool {
		switch {
		case out[i].Pick > out[j].Pick:
			return true
		case out[i].Pick < out[j].Pick:
			return false
		}
		return out[i].Cost < out[j].Cost
	})
	return capPerClass(out, w.Cfg.MaxOpsPerClass)
}
