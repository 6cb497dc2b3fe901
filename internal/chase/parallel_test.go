package chase_test

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"wqe/internal/chase"
	"wqe/internal/datagen"
	"wqe/internal/query"
)

// parAlgos are the algorithms with parallel evaluation paths, each
// rendered to a byte-comparable transcript.
var parAlgos = []struct {
	name string
	run  func(w *chase.Why) string
}{
	{"AnsHeu", func(w *chase.Why) string { return renderAnswer(w.AnsHeu(3)) }},
	{"AnsHeuB", func(w *chase.Why) string { return renderAnswer(w.AnsHeuB(3)) }},
	{"AnsW", func(w *chase.Why) string { return renderAnswer(w.AnsW()) }},
	{"TopK3", func(w *chase.Why) string {
		var b strings.Builder
		for _, a := range w.TopK(3) {
			b.WriteString(renderAnswer(a))
			b.WriteByte('\n')
		}
		return b.String()
	}},
	{"ApxWhyM", func(w *chase.Why) string { return renderAnswer(w.ApxWhyM()) }},
}

// TestParallelMatchesSequentialFig1 is the core determinism contract of
// the parallel evaluation engine: for every algorithm, any worker count
// must produce byte-identical output — and an identical step count — to
// the fully sequential run, because candidates are claimed and committed
// in sequential order and only the evaluations in between run
// concurrently.
func TestParallelMatchesSequentialFig1(t *testing.T) {
	for _, al := range parAlgos {
		al := al
		t.Run(al.name, func(t *testing.T) {
			var base string
			var baseSteps int
			for _, workers := range []int{1, 2, 4, 0} {
				f := datagen.NewFig1()
				cfg := chase.DefaultConfig()
				cfg.Workers = workers
				w, err := chase.NewWhy(f.G, f.Q, f.E, cfg)
				if err != nil {
					t.Fatalf("NewWhy: %v", err)
				}
				got := al.run(w)
				if workers == 1 {
					base, baseSteps = got, w.Stats.Steps
					continue
				}
				if got != base {
					t.Errorf("workers=%d output diverged from sequential:\nseq: %s\npar: %s",
						workers, base, got)
				}
				if w.Stats.Steps != baseSteps {
					t.Errorf("workers=%d step schedule diverged: %d steps, sequential %d",
						workers, w.Stats.Steps, baseSteps)
				}
			}
		})
	}
}

// TestParallelMatchesSequentialSynthetic repeats the byte-identity check
// on generated Why-questions over a synthetic dataset, where operator
// pools are larger and plateaus give speculative evaluation far more
// opportunities to misorder work if the commit discipline were wrong.
func TestParallelMatchesSequentialSynthetic(t *testing.T) {
	run := func(workers int) string {
		g, instances := genInstances(t, datagen.DatasetProducts, 1500, 3, 9)
		var b strings.Builder
		for _, inst := range instances {
			cfg := chase.DefaultConfig()
			cfg.MaxSteps = 800
			cfg.Workers = workers
			w, err := chase.NewWhy(g, inst.Q, inst.E, cfg)
			if err != nil {
				t.Fatalf("NewWhy: %v", err)
			}
			b.WriteString(renderAnswer(w.AnsHeu(3)))
			b.WriteByte('\n')
			b.WriteString(renderAnswer(w.AnsW()))
			b.WriteByte('\n')
			b.WriteString(renderAnswer(w.ApxWhyM()))
			b.WriteByte('\n')
		}
		return b.String()
	}
	seq := run(1)
	if par := run(4); par != seq {
		t.Fatalf("parallel output diverged from sequential:\n--- workers=1\n%s--- workers=4\n%s", seq, par)
	}
}

// TestGenRefineParallelMatchesSequential pins GenRefine's parallel
// partner-set BFS and removal scoring to the sequential run on the
// synthetic instances above. Pools are taken at the original query and
// at the rewrites AnsHeu(3) and AnsW return: for every worker count
// each pool holds the same operators in the same order, with
// bit-identical pickiness and cost, the same gain sets and the same
// inducing edge. The partner-memo counters must not depend on the pool
// size either, after each pool and after the full runs.
func TestGenRefineParallelMatchesSequential(t *testing.T) {
	g, instances := genInstances(t, datagen.DatasetProducts, 1500, 3, 9)
	ops := 0
	run := func(workers int) string {
		var b strings.Builder
		for i, inst := range instances {
			cfg := chase.DefaultConfig()
			cfg.MaxSteps = 800
			cfg.Workers = workers
			w, err := chase.NewWhy(g, inst.Q, inst.E, cfg)
			if err != nil {
				t.Fatalf("NewWhy: %v", err)
			}
			pool := func(name string, q *query.Query) {
				p := w.GenRefine(q, w.Matcher.Match(q), map[string]bool{}, cfg.Budget)
				ops += len(p)
				fmt.Fprintf(&b, "instance %d, %s pool: %d ops, partner sets %d, memo hits %d\n",
					i, name, len(p), w.Stats.PartnerSets, w.Stats.PartnerHits)
				for _, s := range p {
					fmt.Fprintf(&b, "  %v pick=%#x cost=%#x gain=%v edge=%d\n",
						s.Op, math.Float64bits(s.Pick), math.Float64bits(s.Cost), s.Gain, s.PickyEdge)
				}
			}
			pool("root", w.Q)
			heu := w.AnsHeu(3)
			fmt.Fprintf(&b, "AnsHeu: partner sets %d, memo hits %d\n", w.Stats.PartnerSets, w.Stats.PartnerHits)
			answ := w.AnsW()
			fmt.Fprintf(&b, "AnsW: partner sets %d, memo hits %d\n", w.Stats.PartnerSets, w.Stats.PartnerHits)
			pool("AnsHeu", heu.Query)
			pool("AnsW", answ.Query)
		}
		return b.String()
	}
	seq := run(1)
	if ops < 20 {
		t.Fatalf("only %d refinement operators generated: the fixture exercises too little", ops)
	}
	for _, workers := range []int{2, 4} {
		if got := run(workers); got != seq {
			t.Errorf("workers=%d diverged from sequential:\n--- workers=1\n%s--- workers=%d\n%s", workers, seq, workers, got)
		}
	}
}

// TestParallelRaceStress drives every parallel path with a wide worker
// pool; under -race it dynamically checks the engine's sharing contract
// (read-only Why state, atomic step counter, lock-guarded cache with
// singleflight builds).
func TestParallelRaceStress(t *testing.T) {
	f := datagen.NewFig1()
	cfg := chase.DefaultConfig()
	cfg.Workers = 8
	w, err := chase.NewWhy(f.G, f.Q, f.E, cfg)
	if err != nil {
		t.Fatalf("NewWhy: %v", err)
	}
	w.AnsHeu(4)
	w.AnsW()
	w.ApxWhyM()
}

// TestConcurrentWhyQuestionsSharedGraph runs independent parallel
// Why-questions over one shared graph — the multi-tenant pattern
// NewWhy's cache-warming exists for. Meaningful under -race.
func TestConcurrentWhyQuestionsSharedGraph(t *testing.T) {
	f := datagen.NewFig1()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cfg := chase.DefaultConfig()
			cfg.Workers = 4
			w, err := chase.NewWhy(f.G, f.Q, f.E, cfg)
			if err != nil {
				t.Errorf("NewWhy: %v", err)
				return
			}
			w.AnsHeu(3)
		}()
	}
	wg.Wait()
}
