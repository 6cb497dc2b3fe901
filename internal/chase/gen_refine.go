package chase

import (
	"math"
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

// partners returns the candidate partners of focus match v at pattern
// node u: the first maxPartnersScored candidates in BFS order, sorted.
// Results are memoized on the Why across chase states: they depend
// only on v, u's matching signature, and the radius.
func (pm *partnerMap) partners(v graph.NodeID, u query.NodeID) []graph.NodeID {
	if u == pm.q.Focus {
		return []graph.NodeID{v}
	}
	key := partnerCacheKey{v: v, pd: pm.pd[u], sig: pm.sig[u]}
	if p, ok := pm.w.partnerCache[key]; ok {
		pm.w.Stats.PartnerHits++
		return p
	}
	pm.w.Stats.PartnerSets++
	var out []graph.NodeID
	check := &pm.check[u]
	if label, live := check.LabelID(); live {
		g := pm.w.G
		out = g.BallFirst(v, pm.pd[u], graph.Both, maxPartnersScored, label,
			func(p graph.NodeID) bool { return p != v && check.Candidate(g, p) })
	}
	sortNodes(out)
	pm.w.partnerCache[key] = out
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

	// survives reports whether focus match v keeps at least one partner
	// at u satisfying pred.
	survives := func(v graph.NodeID, u query.NodeID, pred func(graph.NodeID) bool) bool {
		for _, p := range pm.partners(v, u) {
			if pred(p) {
				return true
			}
		}
		return false
	}
	removedBy := func(u query.NodeID, pred func(graph.NodeID) bool) (imOut, rmOut []graph.NodeID) {
		for _, v := range im {
			if !survives(v, u, pred) {
				imOut = append(imOut, v)
			}
		}
		for _, v := range rm {
			if !survives(v, u, pred) {
				rmOut = append(rmOut, v)
			}
		}
		return
	}

	w.genAddL(q, rm, pm, used, add, removedBy)
	w.genRfL(q, rm, pm, used, add, removedBy)
	w.genRfE(q, rm, im, used, add)
	w.genAddE(q, rm, im, used, add)

	return w.finishScoredRefine(acc)
}

// genAddL: for each pattern node u and attribute value carried by an
// RM-supporting match of u and not yet constrained in F_Q(u), propose
// AddL(u, A = a) hoping irrelevant matches fail it. Values rank by how
// many RM partners carry them, ties broken by the key "A=a#kind"; a
// key's literal carries the value seen last under it.
func (w *Why) genAddL(q *query.Query, rm []graph.NodeID, pm *partnerMap,
	used map[string]bool,
	add func(ops.Op, int, []graph.NodeID, []graph.NodeID),
	removedBy func(query.NodeID, func(graph.NodeID) bool) ([]graph.NodeID, []graph.NodeID)) {

	const maxValuesPerAttr = 6
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
	// valueClass is one ranking key with its summed count and the
	// value seen last among the exact values rendering to it.
	type valueClass struct {
		key string
		valueCount
	}
	numAttrs := w.G.Attrs.Len()
	for ui := range q.Nodes {
		u := query.NodeID(ui)
		// Count exact attribute values over RM partners at u. skip
		// holds, per attribute id, 0 (undecided), 1 (counted) or 2
		// (already constrained in F_Q(u) or a used target).
		skip := make([]int8, numAttrs)
		index := map[exactVal]int{}
		var counts []valueCount
		seen := 0
		for _, vrm := range rm {
			for _, p := range pm.partners(vrm, u) {
				for _, t := range w.G.Tuple(p) {
					if skip[t.Attr] == 0 {
						attr := w.G.Attrs.Name(t.Attr)
						skip[t.Attr] = 1
						if q.FindLiteral(u, attr, graph.EQ) >= 0 || used[litTarget(u, attr)] {
							skip[t.Attr] = 2
						}
					}
					if skip[t.Attr] == 2 {
						continue
					}
					k := exactVal{aid: t.Attr, kind: t.Val.Kind, bits: math.Float64bits(t.Val.Num), str: t.Val.Str}
					i, ok := index[k]
					if !ok {
						i = len(counts)
						index[k] = i
						counts = append(counts, valueCount{aid: t.Attr, val: t.Val})
					}
					seen++
					counts[i].count++
					counts[i].last = seen
				}
			}
		}
		// Merge exact values into ranking keys, rendered once each.
		classOf := map[string]int{}
		var classes []valueClass
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
		sort.Slice(classes, func(i, j int) bool {
			if classes[i].count != classes[j].count {
				return classes[i].count > classes[j].count
			}
			return classes[i].key < classes[j].key
		})
		perAttr := make([]int, numAttrs)
		for _, c := range classes {
			if perAttr[c.aid] >= maxValuesPerAttr {
				continue
			}
			perAttr[c.aid]++
			lit := query.Literal{Attr: w.G.Attrs.Name(c.aid), Op: graph.EQ, Val: c.val}
			imOut, rmOut := removedBy(u, func(p graph.NodeID) bool {
				val, ok := w.G.AttrByID(p, c.aid)
				return ok && lit.Op.Holds(val, lit.Val)
			})
			add(ops.Op{Kind: ops.AddL, U: u, Lit: lit}, -1, imOut, rmOut)
		}
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
func (w *Why) genRfL(q *query.Query, rm []graph.NodeID, pm *partnerMap,
	used map[string]bool,
	add func(ops.Op, int, []graph.NodeID, []graph.NodeID),
	removedBy func(query.NodeID, func(graph.NodeID) bool) ([]graph.NodeID, []graph.NodeID)) {

	const maxValues = 6
	for ui := range q.Nodes {
		u := query.NodeID(ui)
		for _, l := range q.Nodes[u].Literals {
			if l.Val.Kind != graph.Number || used[litTarget(u, l.Attr)] {
				continue
			}
			// RM-supporting values of this attribute at u.
			var vals []float64
			seen := map[float64]bool{}
			for _, vrm := range rm {
				for _, p := range pm.partners(vrm, u) {
					if val, ok := w.G.Attr(p, l.Attr); ok && val.Kind == graph.Number {
						if !seen[val.Num] {
							seen[val.Num] = true
							vals = append(vals, val.Num)
						}
					}
				}
			}
			sort.Float64s(vals)
			gen := func(newLit query.Literal) {
				imOut, rmOut := removedBy(u, func(p graph.NodeID) bool { return newLit.Sat(w.G, p) })
				add(ops.Op{Kind: ops.RfL, U: u, Lit: l, NewLit: newLit}, -1, imOut, rmOut)
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
	}
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
		certainlyCut := func(v graph.NodeID) bool {
			dir := graph.Forward
			if !out {
				dir = graph.Backward
			}
			for _, nd := range w.G.Ball(v, e.Bound-1, dir) {
				if nd.D > 0 && q.IsCandidate(w.G, other, nd.V) {
					return false
				}
			}
			return true
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
