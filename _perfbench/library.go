package main

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"time"

	"wqe/internal/chase"
	"wqe/internal/distindex"
	"wqe/internal/exemplar"
	"wqe/internal/graph"
	"wqe/internal/match"
)

// libJob is one question for the in-process library, with the
// algorithm and step cap its endpoint implies.
type libJob struct {
	p        parsed
	algo     string // "heu", "answ", "whymany" or "whyempty"
	maxSteps int
}

func (j libJob) batch() chase.BatchJob {
	job := chase.BatchJob{Q: j.p.q, E: j.p.e, Algo: j.algo, MaxSteps: j.maxSteps}
	if j.algo == "heu" {
		job.Beam = askBeam
	}
	return job
}

// runAlgo runs a compiled question with the job's algorithm, exactly as
// chase.Session.Run would.
func runAlgo(w *chase.Why, j libJob) chase.Answer {
	if j.maxSteps > 0 {
		w.Cfg.MaxSteps = j.maxSteps
	}
	switch j.algo {
	case "heu":
		return w.AnsHeu(askBeam)
	case "whymany":
		return w.ApxWhyM()
	case "whyempty":
		return w.AnsWE()
	}
	return w.AnsW()
}

// layerStats are the per-layer numbers of one traced library pass.
type layerStats struct {
	results                          []chase.BatchResult
	compileMS, runMS, coldMS, warmMS []float64
	evalMS, opgenMS                  []float64
	steps, states, pruned, opgenOps  int
	withinCalls, withinNS            int64
	cache                            match.CacheCounters
	wall                             time.Duration // question spans only, probes excluded
}

// traceLibrary answers every job once on a fresh session over a
// counting wrapper of idx, with a span around each call into a layer,
// and then probes the layers on the job's root query one at a time:
// exemplar.NewEval, an uncached and a cache-primed Matcher.Match, and
// the operator generators GenRefine and GenRelax on a fresh Why.
func traceLibrary(tr *tracer, g *graph.Graph, idx distindex.Index, cfg chase.Config, jobs []libJob) (*layerStats, error) {
	counted := &countingIndex{inner: idx}
	sess := chase.NewSessionWithIndex(g, cfg, counted)
	st := &layerStats{results: make([]chase.BatchResult, len(jobs))}
	for i, j := range jobs {
		t0 := time.Now()
		root := tr.begin("question", -1, i)
		c := tr.begin("chase.compile", root, i)
		w, err := sess.Why(j.p.q, j.p.e)
		tr.end(c)
		if err != nil {
			tr.end(root)
			return nil, fmt.Errorf("question %d: compile: %w", i, err)
		}
		r := tr.begin("chase.run", root, i)
		a := runAlgo(w, j)
		tr.end(r)
		st.results[i] = chase.BatchResult{Answer: a, Steps: w.Stats.Steps, States: w.Stats.States}
		tr.end(root)
		st.wall += time.Since(t0)
		st.steps += w.Stats.Steps
		st.states += w.Stats.States
		st.pruned += w.Stats.Pruned
		st.compileMS = append(st.compileMS, tr.ms(c))
		st.runMS = append(st.runMS, tr.ms(r))
		st.withinCalls += counted.calls.Swap(0)
		st.withinNS += counted.ns.Swap(0)

		probe := tr.begin("probe", -1, i)
		h := tr.begin("exemplar.neweval", probe, i)
		_, err = exemplar.NewEval(g, j.p.e, exemplar.Options{Theta: cfg.Theta, Lambda: cfg.Lambda})
		tr.end(h)
		if err != nil {
			return nil, fmt.Errorf("question %d: NewEval: %w", i, err)
		}
		st.evalMS = append(st.evalMS, tr.ms(h))
		h = tr.begin("match.match_root_cold", probe, i)
		match.NewMatcher(g, idx, nil).Match(j.p.q)
		tr.end(h)
		st.coldMS = append(st.coldMS, tr.ms(h))
		warm := match.NewMatcher(g, idx, match.NewCache(64, 0.95))
		warm.Match(j.p.q)
		h = tr.begin("match.match_root_warm", probe, i)
		warm.Match(j.p.q)
		tr.end(h)
		st.warmMS = append(st.warmMS, tr.ms(h))
		h = tr.begin("chase.compile", probe, i)
		w2, err := chase.NewSessionWithIndex(g, cfg, idx).Why(j.p.q, j.p.e)
		tr.end(h)
		if err != nil {
			return nil, fmt.Errorf("question %d: probe compile: %w", i, err)
		}
		h = tr.begin("match.match_root_for_opgen", probe, i)
		rootRes := w2.Matcher.Match(w2.Q)
		tr.end(h)
		h = tr.begin("chase.opgen_root", probe, i)
		st.opgenOps += len(w2.GenRefine(w2.Q, rootRes, map[string]bool{}, cfg.Budget))
		st.opgenOps += len(w2.GenRelax(w2.Q, rootRes, map[string]bool{}, cfg.Budget))
		tr.end(h)
		tr.end(probe)
		st.opgenMS = append(st.opgenMS, tr.ms(h))
	}
	st.cache = sess.Counters().Cache
	return st, nil
}

// report adds the library layers' per-layer metrics. withIndex adds the
// distance-oracle counters, which only the PLL workload reports.
func (st *layerStats) report(rep *report, withIndex bool) {
	n := len(st.results)
	rep.per("chase.compile_ms", median(st.compileMS), "ms", n)
	rep.per("chase.run_ms", median(st.runMS), "ms", n)
	rep.per("chase.ms_per_step", ratio(sum(st.runMS), float64(st.steps)), "ms", st.steps)
	rep.per("chase.steps", float64(st.steps), "count", n)
	rep.per("chase.states", float64(st.states), "count", n)
	rep.per("chase.pruned", float64(st.pruned), "count", n)
	rep.per("chase.opgen_root_ms", median(st.opgenMS), "ms", n)
	rep.per("chase.opgen_root_ops", float64(st.opgenOps), "count", n)
	rep.per("match.match_root_cold_ms", median(st.coldMS), "ms", n)
	rep.per("match.match_root_warm_ms", median(st.warmMS), "ms", n)
	rep.per("exemplar.neweval_ms", median(st.evalMS), "ms", n)
	calls, within := 0.0, 0.0
	if withIndex {
		calls, within = float64(st.withinCalls), float64(st.withinNS)/1e6
	}
	rep.per("distindex.within_calls", calls, "count", n)
	rep.per("distindex.within_ms", within, "ms", n)
}

// checkAnswer verifies one answer independently of the chase: the
// rewrite re-evaluated by an uncached matcher must give the reported
// matches, closeness and satisfaction recomputed by a fresh
// exemplar.Eval must agree, and the operator cost must match and stay
// within the budget.
func checkAnswer(g *graph.Graph, m *match.Matcher, cfg chase.Config, p parsed, a chase.Answer) error {
	got := m.Match(a.Query).Answer
	if !sameNodes(got, a.Matches) {
		return fmt.Errorf("rewrite %s: uncached matcher finds %d matches, answer reports %d", a.Query, len(got), len(a.Matches))
	}
	ev, err := exemplar.NewEval(g, p.e, exemplar.Options{Theta: cfg.Theta, Lambda: cfg.Lambda})
	if err != nil {
		return err
	}
	cands := g.NodesByLabel(p.q.Nodes[p.q.Focus].Label)
	if cl := ev.Closeness(got, len(cands)); math.Abs(cl-a.Closeness) > 1e-9 {
		return fmt.Errorf("closeness %v recomputed as %v", a.Closeness, cl)
	}
	if sat := ev.SatisfiedBy(got); sat != a.Satisfied {
		return fmt.Errorf("satisfied %v recomputed as %v", a.Satisfied, sat)
	}
	cost := a.Ops.Cost(g)
	if math.Abs(cost-a.Cost) > 1e-9 || cost > cfg.Budget+1e-9 {
		return fmt.Errorf("cost %v (recomputed %v) against budget %v", a.Cost, cost, cfg.Budget)
	}
	return nil
}

func sameNodes(a, b []graph.NodeID) bool {
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

// countingIndex counts and times the distance oracle's Within calls;
// only traced runs install it.
type countingIndex struct {
	inner distindex.Index
	calls atomic.Int64
	ns    atomic.Int64
}

func (c *countingIndex) Dist(s, t graph.NodeID) int { return c.inner.Dist(s, t) }

func (c *countingIndex) Within(s, t graph.NodeID, bound int) bool {
	start := time.Now()
	ok := c.inner.Within(s, t, bound)
	c.ns.Add(int64(time.Since(start)))
	c.calls.Add(1)
	return ok
}

// starCache reports star-view cache counters (deltas over the measured
// window, weight as resident at its end).
func starCache(rep *report, c match.CacheCounters) {
	rep.per("match.starcache.hit_ratio", ratio(float64(c.Hits), float64(c.Hits+c.Misses)), "ratio", int(c.Hits+c.Misses))
	rep.per("match.starcache.misses", float64(c.Misses), "count", 1)
	rep.per("match.starcache.evictions", float64(c.Evictions), "count", 1)
	rep.per("match.starcache.weight", float64(c.Weight), "cells", 1)
	rep.per("match.starcache.admission_rejects", float64(c.AdmissionRejects), "count", 1)
}

// printSelfTimes prints per-layer self time from the spans.
func printSelfTimes(tr *tracer) {
	self := tr.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Println("# span self time (ms, summed over the run)")
	for _, n := range names {
		fmt.Printf("#   %-34s %12.3f\n", n, self[n])
	}
}
