package chase

import (
	"math"
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
		for _, vrm := range rm {
			for _, p := range pm.partners(vrm, u) {
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
// whose keys collide across attributes. It also checks each literal's
// id-based predicate against Literal.Sat on every node.
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
	add := func(o ops.Op, _ int, _, _ []graph.NodeID) { got = append(got, o) }
	// preds[i] is the predicate genAddL scored got[i] with.
	var preds []func(graph.NodeID) bool
	removedBy := func(_ query.NodeID, pred func(graph.NodeID) bool) ([]graph.NodeID, []graph.NodeID) {
		preds = append(preds, pred)
		return nil, nil
	}
	w.genAddL(q, focus, pm, used, add, removedBy)

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
