package chase

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"wqe/internal/exemplar"
	"wqe/internal/graph"
	"wqe/internal/ops"
	"wqe/internal/query"
)

// TestTargetKeys pins the cancel-out target strings: the used maps of
// every generator key on them.
func TestTargetKeys(t *testing.T) {
	if got := litTarget(3, "Price"); got != "L:3:Price" {
		t.Errorf("litTarget = %q, want L:3:Price", got)
	}
	if got := edgeTarget(0, 12); got != "E:0:12" {
		t.Errorf("edgeTarget = %q, want E:0:12", got)
	}
	seq := ops.Sequence{
		{Kind: ops.AddL, U: 1, Lit: query.Literal{Attr: "a b", Op: graph.EQ, Val: graph.N(1)}},
		{Kind: ops.RmE, U: 2, U2: 10},
		{Kind: ops.AddE, U: 0, Bound: 1, NewNode: &ops.NewNodeSpec{Label: "X"}},
	}
	got := opTargets(seq)
	if len(got) != 2 || !got["L:1:a b"] || !got["E:2:10"] {
		t.Errorf("opTargets = %v, want {L:1:a b, E:2:10}", got)
	}
}

// refAddLOrder is the string-keyed ranking genAddL must reproduce: it
// counts "attr=val#kind" keys over the tuples of RM partners, keeps the
// value seen last per key, and orders by count, then key.
func refAddLOrder(w *Why, q *query.Query, rm []graph.NodeID, pm *partnerMap, used map[string]bool) []ops.Op {
	var out []ops.Op
	for ui := range q.Nodes {
		u := query.NodeID(ui)
		type av struct {
			attr string
			val  graph.Value
		}
		counts := map[string]int{}
		reprs := map[string]av{}
		for _, ps := range pm.partnerSets(appendReqs(nil, rm, u)) {
			for _, p := range ps {
				for _, t := range w.G.Tuple(p) {
					attr := w.G.Attrs.Name(t.Attr)
					if q.FindLiteral(u, attr, graph.EQ) >= 0 || used[litTarget(u, attr)] {
						continue
					}
					key := attr + "=" + t.Val.String() + kindOf(t.Val)
					counts[key]++
					reprs[key] = av{attr: attr, val: t.Val}
				}
			}
		}
		keys := make([]string, 0, len(counts))
		for k := range counts {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if counts[keys[i]] != counts[keys[j]] {
				return counts[keys[i]] > counts[keys[j]]
			}
			return keys[i] < keys[j]
		})
		perAttr := map[string]int{}
		for _, k := range keys {
			x := reprs[k]
			if perAttr[x.attr] >= 6 {
				continue
			}
			perAttr[x.attr]++
			out = append(out, ops.Op{Kind: ops.AddL, U: u, Lit: query.Literal{Attr: x.attr, Op: graph.EQ, Val: x.val}})
		}
	}
	return out
}

// TestGenAddLRanking checks genAddL's exact-value counting against the
// string-keyed reference on values the two keyings treat differently:
// -0 and +0 (distinct keys "-0" and "0"), NaNs with different payloads
// (one key "NaN", so the literal must carry the payload seen last), a
// string "0" beside the number 0, and attribute names containing "="
// whose keys collide across attributes, also within one tuple. It also
// checks each literal's id-based predicate against Literal.Sat on every
// node.
func TestGenAddLRanking(t *testing.T) {
	negZero := math.Copysign(0, -1)
	nan1 := math.Float64frombits(0x7ff8000000000001)
	nan2 := math.Float64frombits(0x7ff8000000000002)
	g := graph.New()
	var focus []graph.NodeID
	for i := 0; i < 4; i++ {
		focus = append(focus, g.AddNode("F", map[string]graph.Value{
			"k": graph.N(1), "z": graph.N(float64(i % 2)),
		}))
	}
	partnerAttrs := []map[string]graph.Value{
		{"w": graph.N(0), "a=b": graph.S("c"), "lock": graph.N(5), "skip": graph.N(1)},
		{"w": graph.N(negZero), "a": graph.S("b=c"), "lock": graph.N(5)},
		{"w": graph.N(nan1), "a=b": graph.S("c"), "lock": graph.N(5), "skip": graph.N(2)},
		{"w": graph.N(nan2), "a": graph.S("b=c"), "lock": graph.N(5)},
		{"w": graph.S("0"), "lock": graph.N(5)},
		{"w": graph.N(nan1), "lock": graph.N(5)},
		{"w": graph.N(negZero), "a=b": graph.S("c"), "lock": graph.N(5)},
		{"w": graph.N(2), "lock": graph.N(5)},
		// Colliding keys within one tuple: the later entry is seen last.
		{"x": graph.S("y=z"), "x=y": graph.S("z"), "lock": graph.N(5)},
	}
	var partners []graph.NodeID
	for _, attrs := range partnerAttrs {
		partners = append(partners, g.AddNode("P", attrs))
	}
	for i, f := range focus {
		for j, p := range partners {
			if (i+j)%3 != 0 {
				g.AddEdge(f, p, "e")
			}
		}
	}
	q := &query.Query{
		Nodes: []query.Node{
			{Label: "F"},
			{Label: "P", Literals: []query.Literal{{Attr: "lock", Op: graph.EQ, Val: graph.N(5)}}},
		},
		Edges: []query.Edge{{From: 0, To: 1, Bound: 1}},
		Focus: 0,
	}
	e := &exemplar.Exemplar{Tuples: []exemplar.TuplePattern{{"k": exemplar.C(graph.N(1))}}}
	w, err := NewWhy(g, q, e, Config{})
	if err != nil {
		t.Fatal(err)
	}
	used := map[string]bool{litTarget(1, "skip"): true}
	pm := newPartnerMap(w, q)

	var got []ops.Op
	// preds[i] is the predicate genAddL scores got[i] with.
	var preds []func(graph.NodeID) bool
	for _, c := range w.genAddL(q, focus, pm, used) {
		got = append(got, c.op)
		preds = append(preds, c.keep)
	}

	want := refAddLOrder(w, q, focus, pm, used)
	if len(got) != len(want) {
		t.Fatalf("genAddL proposed %d literals, reference %d:\ngot  %v\nwant %v", len(got), len(want), got, want)
	}
	sawNaN, sawNegZero := false, false
	for i := range want {
		gl, wl := got[i].Lit, want[i].Lit
		if got[i].U != want[i].U || gl.Attr != wl.Attr || gl.Op != wl.Op || gl.Val.Kind != wl.Val.Kind ||
			math.Float64bits(gl.Val.Num) != math.Float64bits(wl.Val.Num) || gl.Val.Str != wl.Val.Str {
			t.Fatalf("literal %d: got u%d %s (bits %#x), want u%d %s (bits %#x)", i,
				got[i].U, gl, math.Float64bits(gl.Val.Num), want[i].U, wl, math.Float64bits(wl.Val.Num))
		}
		if gl.Attr == "skip" || gl.Attr == "lock" && got[i].U == 1 {
			t.Errorf("literal %d: %s on u%d should have been skipped", i, gl, got[i].U)
		}
		if gl.Val.Kind == graph.Number && math.IsNaN(gl.Val.Num) {
			sawNaN = true
		}
		if gl.Val.Kind == graph.Number && math.Signbit(gl.Val.Num) {
			sawNegZero = true
		}
		for v := 0; v < g.NumNodes(); v++ {
			if preds[i](graph.NodeID(v)) != gl.Sat(g, graph.NodeID(v)) {
				t.Fatalf("literal %d (%s): predicate disagrees with Sat on node %d", i, gl, v)
			}
		}
	}
	if !sawNaN || !sawNegZero {
		t.Errorf("fixture lost its edge values: NaN %v, -0 %v in %v", sawNaN, sawNegZero, got)
	}
}

// refRfECut is genRfE's removal certainty as a plain scan: v is cut
// unless the ball of radius bound-1 around it, in dir, holds a
// candidate of pattern node other besides v itself.
func refRfECut(g *graph.Graph, q *query.Query, other query.NodeID, v graph.NodeID, bound int, dir graph.Direction) bool {
	for _, nd := range g.Ball(v, bound-1, dir) {
		if nd.D > 0 && q.IsCandidate(g, other, nd.V) {
			return false
		}
	}
	return true
}

// TestGenRfEMatchesBallScan checks genRfE's early-exit search against
// the plain ball scan on a random graph, for focus-incident edges in
// both directions and bounds 2–4, with the other endpoint carrying the
// focus's label (so v itself is a candidate and must not count), a
// literal, the wildcard label, or a label absent from the graph.
func TestGenRfEMatchesBallScan(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := graph.New()
	const n = 80
	for i := 0; i < n; i++ {
		g.AddNode([]string{"A", "B"}[rng.Intn(2)], map[string]graph.Value{"x": graph.N(float64(rng.Intn(5)))})
	}
	for i := 0; i < 100; i++ {
		if a, b := rng.Intn(n), rng.Intn(n); a != b {
			g.AddEdge(graph.NodeID(a), graph.NodeID(b), "e")
		}
	}
	focus := g.NodesByLabel("A")
	im, rm := focus[:len(focus)/2], focus[len(focus)/2:]
	others := []query.Node{
		{Label: "A"},
		{Label: "B", Literals: []query.Literal{{Attr: "x", Op: graph.LE, Val: graph.N(1)}}},
		{Label: "A", Literals: []query.Literal{{Attr: "x", Op: graph.GE, Val: graph.N(3)}}},
		{Label: ""},
		{Label: "Z"},
	}
	w := &Why{G: g}
	cut, kept := 0, 0
	for _, other := range others {
		for bound := 2; bound <= 4; bound++ {
			for _, out := range []bool{true, false} {
				e := query.Edge{From: 0, To: 1, Bound: bound}
				dir := graph.Forward
				if !out {
					e.From, e.To, dir = 1, 0, graph.Backward
				}
				q := &query.Query{Nodes: []query.Node{{Label: "A"}, other}, Edges: []query.Edge{e}, Focus: 0}
				var gotIM, gotRM []graph.NodeID
				calls := 0
				w.genRfE(q, rm, im, map[string]bool{}, func(_ ops.Op, _ int, imOut, rmOut []graph.NodeID) {
					gotIM, gotRM = imOut, rmOut
					calls++
				})
				if calls != 1 {
					t.Fatalf("%v: genRfE offered %d operators, want 1", q, calls)
				}
				check := func(vs, got []graph.NodeID) {
					var want []graph.NodeID
					for _, v := range vs {
						if refRfECut(g, q, 1, v, bound, dir) {
							want = append(want, v)
						}
					}
					if len(got) != len(want) {
						t.Fatalf("%v: cut %v, want %v", q, got, want)
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("%v: cut %v, want %v", q, got, want)
						}
					}
					cut += len(want)
					kept += len(vs) - len(want)
				}
				check(im, gotIM)
				check(rm, gotRM)
			}
		}
	}
	if cut == 0 || kept == 0 {
		t.Errorf("fixture decides only one way: %d cut, %d kept", cut, kept)
	}
}

// refRfLOps is genRfL's candidate list with the literal's attribute
// looked up by name on every partner.
func refRfLOps(w *Why, q *query.Query, rm []graph.NodeID, pm *partnerMap, used map[string]bool) []ops.Op {
	var out []ops.Op
	for ui := range q.Nodes {
		u := query.NodeID(ui)
		for _, l := range q.Nodes[u].Literals {
			if l.Val.Kind != graph.Number || used[litTarget(u, l.Attr)] {
				continue
			}
			var vals []float64
			seen := map[float64]bool{}
			for _, ps := range pm.partnerSets(appendReqs(nil, rm, u)) {
				for _, p := range ps {
					if val, ok := w.G.Attr(p, l.Attr); ok && val.Kind == graph.Number && !seen[val.Num] {
						seen[val.Num] = true
						vals = append(vals, val.Num)
					}
				}
			}
			sort.Float64s(vals)
			gen := func(op graph.Op, a float64) {
				out = append(out, ops.Op{Kind: ops.RfL, U: u, Lit: l,
					NewLit: query.Literal{Attr: l.Attr, Op: op, Val: graph.N(a)}})
			}
			count := 0
			switch l.Op {
			case graph.LE, graph.LT:
				for i := len(vals) - 1; i >= 0 && count < 6; i-- {
					if vals[i] < l.Val.Num {
						gen(graph.LE, vals[i])
						count++
					}
				}
			case graph.GE, graph.GT:
				for i := 0; i < len(vals) && count < 6; i++ {
					if vals[i] > l.Val.Num {
						gen(graph.GE, vals[i])
						count++
					}
				}
			}
		}
	}
	return out
}

// TestGenRfLMatchesNameLookup checks genRfL's id-based value
// collection against looking the attribute up by name: upper and lower
// bounds, a string value under a numeric literal's attribute, a string
// literal, a used target, and an attribute no node carries. It also
// checks each candidate's predicate against Literal.Sat on every node.
func TestGenRfLMatchesNameLookup(t *testing.T) {
	g := graph.New()
	var focus []graph.NodeID
	for _, k := range []graph.Value{graph.N(1), graph.N(4), graph.S("7"), graph.N(9), graph.N(4)} {
		focus = append(focus, g.AddNode("F", map[string]graph.Value{"k": k, "z": graph.S("s")}))
	}
	var partners []graph.NodeID
	for i, p := range []float64{10, 20, 20, 35, 50, 70, 90, 95, 99} {
		partners = append(partners, g.AddNode("P", map[string]graph.Value{
			"p": graph.N(p), "q": graph.N(float64(i % 4)), "r": graph.N(float64(2 * i)),
		}))
	}
	for i, f := range focus {
		for j, p := range partners {
			if (i+j)%3 != 0 {
				g.AddEdge(f, p, "e")
			}
		}
	}
	q := &query.Query{
		Nodes: []query.Node{
			{Label: "F", Literals: []query.Literal{
				{Attr: "k", Op: graph.LE, Val: graph.N(9)},
				{Attr: "absent", Op: graph.LE, Val: graph.N(5)},
				{Attr: "z", Op: graph.EQ, Val: graph.S("s")},
			}},
			{Label: "P", Literals: []query.Literal{
				{Attr: "p", Op: graph.LT, Val: graph.N(100)},
				{Attr: "q", Op: graph.GE, Val: graph.N(0)},
				{Attr: "r", Op: graph.GT, Val: graph.N(0)},
			}},
		},
		Edges: []query.Edge{{From: 0, To: 1, Bound: 1}},
		Focus: 0,
	}
	e := &exemplar.Exemplar{Tuples: []exemplar.TuplePattern{{"k": exemplar.C(graph.N(1))}}}
	w, err := NewWhy(g, q, e, Config{})
	if err != nil {
		t.Fatal(err)
	}
	used := map[string]bool{litTarget(1, "q"): true}
	pm := newPartnerMap(w, q)
	got := w.genRfL(q, focus, pm, used)
	want := refRfLOps(w, q, focus, pm, used)
	if len(got) != len(want) {
		t.Fatalf("genRfL proposed %d literals, reference %d", len(got), len(want))
	}
	sawLE, sawGE := false, false
	for i, c := range got {
		if c.op.U != want[i].U || c.op.Lit != want[i].Lit || c.op.NewLit != want[i].NewLit {
			t.Fatalf("candidate %d: got %v, want %v", i, c.op, want[i])
		}
		sawLE = sawLE || c.op.NewLit.Op == graph.LE
		sawGE = sawGE || c.op.NewLit.Op == graph.GE
		for v := 0; v < g.NumNodes(); v++ {
			if c.keep(graph.NodeID(v)) != c.op.NewLit.Sat(g, graph.NodeID(v)) {
				t.Fatalf("candidate %d (%v): predicate disagrees with Sat on node %d", i, c.op, v)
			}
		}
	}
	if !sawLE || !sawGE {
		t.Errorf("fixture lost a direction: LE %v, GE %v in %d candidates", sawLE, sawGE, len(got))
	}
}

// TestPartnerSetsSharedKeys checks the memo counters when two pattern
// nodes share a partner-set key (same label, literals and radius): one
// batch computes each set once, counts the repeat request as a memo
// hit and answers both nodes with the same set; the focus's trivial
// sets count as neither.
func TestPartnerSetsSharedKeys(t *testing.T) {
	g := graph.New()
	var focus []graph.NodeID
	for i := 0; i < 3; i++ {
		focus = append(focus, g.AddNode("F", map[string]graph.Value{"k": graph.N(float64(i))}))
	}
	for i := 0; i < 4; i++ {
		p := g.AddNode("P", nil)
		for _, f := range focus[:i%3+1] {
			g.AddEdge(f, p, "e")
		}
	}
	q := &query.Query{
		Nodes: []query.Node{{Label: "F"}, {Label: "P"}, {Label: "P"}},
		Edges: []query.Edge{{From: 0, To: 1, Bound: 1}, {From: 0, To: 2, Bound: 1}},
		Focus: 0,
	}
	e := &exemplar.Exemplar{Tuples: []exemplar.TuplePattern{{"k": exemplar.C(graph.N(1))}}}
	w, err := NewWhy(g, q, e, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	pm := newPartnerMap(w, q)
	reqs := appendReqs(appendReqs(appendReqs(nil, focus, 1), focus, 2), focus, 0)
	sets := pm.partnerSets(reqs)
	if w.Stats.PartnerSets != 3 || w.Stats.PartnerHits != 3 {
		t.Errorf("first batch: %d sets, %d hits; want 3, 3", w.Stats.PartnerSets, w.Stats.PartnerHits)
	}
	for i, v := range focus {
		a, b := sets[i], sets[len(focus)+i]
		if len(a) == 0 || len(a) != len(b) || &a[0] != &b[0] {
			t.Errorf("focus %d: nodes 1 and 2 got sets %v and %v, want one shared non-empty set", v, a, b)
		}
		if f := sets[2*len(focus)+i]; len(f) != 1 || f[0] != v {
			t.Errorf("focus %d: its own partner set is %v", v, f)
		}
	}
	pm.partnerSets(reqs)
	if w.Stats.PartnerSets != 3 || w.Stats.PartnerHits != 9 {
		t.Errorf("second batch: %d sets, %d hits in total; want 3, 9", w.Stats.PartnerSets, w.Stats.PartnerHits)
	}
}

// TestPartnerSetsMatchBallFirst checks every set the batched partner
// lookup returns against one BallFirst per request, at one and four
// workers, with the requests shuffled across pattern nodes. The
// fixture has 150 focus matches (more than 64 requests at each node), a
// focus match linked to every partner (over the cap at radius 1), a hub
// that puts the wildcard node's radius-2 balls over the cap, a node
// whose literal names an absent attribute (a dead check), and the
// focus itself.
func TestPartnerSetsMatchBallFirst(t *testing.T) {
	const nFocus, nPartners = 150, 300
	g := graph.New()
	var focus []graph.NodeID
	for i := 0; i < nFocus; i++ {
		focus = append(focus, g.AddNode("F", map[string]graph.Value{"k": graph.N(float64(i % 2))}))
	}
	var partners []graph.NodeID
	for i := 0; i < nPartners; i++ {
		partners = append(partners, g.AddNode("P", map[string]graph.Value{"c": graph.N(float64(i % 4))}))
	}
	hub := g.AddNode("H", nil)
	for i, f := range focus {
		for j := 0; j < 3; j++ {
			g.AddEdge(f, partners[(7*i+j)%nPartners], "e")
		}
		if i%10 == 5 {
			g.AddEdge(f, hub, "h")
		}
	}
	for _, p := range partners {
		g.AddEdge(focus[0], p, "e")
	}
	for _, p := range partners[:200] {
		g.AddEdge(hub, p, "h")
	}
	q := &query.Query{
		Nodes: []query.Node{
			{Label: "F"},
			{Label: "P", Literals: []query.Literal{{Attr: "c", Op: graph.LE, Val: graph.N(2)}}},
			{Label: ""},
			{Label: "P", Literals: []query.Literal{{Attr: "absent", Op: graph.EQ, Val: graph.N(1)}}},
		},
		Edges: []query.Edge{{From: 0, To: 1, Bound: 1}, {From: 1, To: 2, Bound: 1}, {From: 0, To: 3, Bound: 1}},
		Focus: 0,
	}
	e := &exemplar.Exemplar{Tuples: []exemplar.TuplePattern{{"k": exemplar.C(graph.N(1))}}}
	var reqs []partnerReq
	for u := range q.Nodes {
		reqs = appendReqs(reqs, focus, query.NodeID(u))
	}
	rand.New(rand.NewSource(5)).Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })

	// want is the set one BallFirst per request computes.
	want := func(pm *partnerMap, r partnerReq) []graph.NodeID {
		if r.u == q.Focus {
			return []graph.NodeID{r.v}
		}
		check := q.Check(g, r.u)
		label, live := check.LabelID()
		if !live {
			return nil
		}
		return sortNodes(g.BallFirst(r.v, pm.pd[r.u], graph.Both, maxPartnersScored, label,
			func(p graph.NodeID) bool { return p != r.v && check.Candidate(g, p) }))
	}
	for _, workers := range []int{1, 4} {
		w, err := NewWhy(g, q, e, Config{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		pm := newPartnerMap(w, q)
		if pm.pd[2] != 2 {
			t.Fatalf("wildcard node radius %d, want 2", pm.pd[2])
		}
		capped := map[query.NodeID]int{}
		for pass := 1; pass <= 2; pass++ {
			sets := pm.partnerSets(reqs)
			for i, r := range reqs {
				ref := want(pm, r)
				if len(sets[i]) != len(ref) || len(ref) > 0 && !reflect.DeepEqual(sets[i], ref) {
					t.Fatalf("workers %d pass %d: node %d, focus match %d: got %v, want %v",
						workers, pass, r.u, r.v, sets[i], ref)
				}
				if pass == 1 && len(ref) == maxPartnersScored {
					capped[r.u]++
				}
			}
			// One set per focus match at each non-focus node, computed
			// once; the second pass serves them all from the memo.
			keys := nFocus * (len(q.Nodes) - 1)
			if w.Stats.PartnerSets != keys || w.Stats.PartnerHits != (pass-1)*keys {
				t.Errorf("workers %d pass %d: %d sets, %d hits; want %d, %d",
					workers, pass, w.Stats.PartnerSets, w.Stats.PartnerHits, keys, (pass-1)*keys)
			}
		}
		if capped[1] == 0 || capped[2] == 0 {
			t.Errorf("fixture lost its over-cap sources: %v sets at the cap per node", capped)
		}
	}
}
