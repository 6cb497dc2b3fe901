package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"wqe/internal/chase"
	"wqe/internal/graphload"
	"wqe/internal/match"
)

// setupRepeats is how many times a run sets the system up; setup_s is
// the median. A cold start takes 3 to 15 ms, so scheduling jitter is a
// large share of one; the median of many damps it within a run.
const setupRepeats = 31

// askBeam is AnsHeu's beam width.
const askBeam = 3

// askConfig is ask-large's session: the paper's defaults with the star
// cache on, the answer cache off, and BENCH_load's 50-step cap.
func askConfig() chase.Config {
	cfg := chase.DefaultConfig()
	cfg.MaxSteps = 50
	cfg.AnswerCache = false
	return cfg
}

// askPass answers every question once, one at a time, and returns the
// answers, per-question latencies in ms and the pass's wall time.
func askPass(sess *chase.Session, jobs []libJob) ([]chase.BatchResult, []float64, time.Duration) {
	out := make([]chase.BatchResult, len(jobs))
	lat := make([]float64, len(jobs))
	start := time.Now()
	for i, j := range jobs {
		t := time.Now()
		out[i] = sess.Run(j.batch())
		lat[i] = ms(time.Since(t))
	}
	return out, lat, time.Since(start)
}

// runAskLarge is the library path: cold-start a session from a snapshot
// with embedded PLL labels, then answer a fixed set of distinct
// questions one at a time with AnsHeu.
func runAskLarge(e *env) (*report, error) {
	dir, err := makeInputs(e)
	if err != nil {
		return nil, err
	}
	recs, err := readQuestions(filepath.Join(dir, "questions.jsonl"))
	if err != nil {
		return nil, err
	}
	jobs := make([]libJob, len(recs))
	for i, r := range recs {
		p, err := parseQuestion(r)
		if err != nil {
			return nil, err
		}
		jobs[i] = libJob{p: p, algo: "heu"}
	}
	cfg := askConfig()
	snap := filepath.Join(dir, "graph.snap")
	tr := newTracer()

	// Cold starts: graphload.Open plus NewSessionWithIndex, repeated.
	var setups, opens []float64
	var res *graphload.Result
	var sess *chase.Session
	for i := 0; i < setupRepeats; i++ {
		res, sess = nil, nil
		runtime.GC()
		start := time.Now()
		if res, err = graphload.Open(snap); err != nil {
			return nil, err
		}
		opened := time.Now()
		sess = chase.NewSessionWithIndex(res.G, cfg, res.Index)
		setups = append(setups, time.Since(start).Seconds())
		opens = append(opens, ms(opened.Sub(start)))
		tr.add("graphload.open", -1, -1, tr.at(start), tr.at(opened))
	}
	printSetups(setups)
	if !res.PLLRestored() {
		return nil, fmt.Errorf("ask-large snapshot did not restore a PLL index")
	}
	g, idx := res.G, res.Index

	rep := newReport()
	rep.attempted = len(jobs)
	check := func(answers []chase.BatchResult) {
		m := match.NewMatcher(g, idx, nil)
		for i, r := range answers {
			err := r.Err
			if err == nil {
				err = checkAnswer(g, m, cfg, jobs[i].p, r.Answer)
			}
			if err != nil {
				rep.fail(1, "question %d: %v", i, err)
			}
		}
	}

	if !e.trace {
		answers, lat, wall := askPass(sess, jobs)
		rss, err := peakRSSMB(os.Getpid())
		if err != nil {
			return nil, err
		}
		check(answers)
		if err := writeFile(filepath.Join(dir, "questions.tsv"), func(w *bufio.Writer) error {
			fmt.Fprintln(w, "question\tfocus\tlatency_ms\tsteps")
			for i, r := range answers {
				fmt.Fprintf(w, "%d\t%s\t%.3f\t%d\n", i, jobs[i].p.q.Nodes[jobs[i].p.q.Focus].Label, lat[i], r.Steps)
			}
			return nil
		}); err != nil {
			return nil, err
		}
		rep.end("setup_s", median(setups), "s", len(setups))
		rep.end("questions_per_s", float64(len(jobs))/wall.Seconds(), "1/s", len(jobs))
		rep.end("latency_ms_p50", median(lat), "ms", len(lat))
		// The p90 is printed, not gated: its run-to-run spread on a
		// 2-CPU VM exceeds any allowed bound (README.md).
		rep.info("latency_ms_p90", quantile(lat, 0.9), "ms", len(lat))
		rep.info("latency_ms_p90_samples_beyond", float64(beyond(lat, 0.9)), "count", len(lat))
		rep.end("peak_rss_mb", rss, "MB", 1)
		return rep, nil
	}

	// Traced run over the first half of the questions, so that it lasts
	// about as long as an untraced run. A warm-up pass on the
	// cold-started session grows the Go heap to its working size (its
	// answers are the ones checked); then an untraced pass on a fresh
	// session gives the Go runtime's allocation and GC deltas and the
	// baseline for the tracing overhead, and a traced pass on another
	// fresh session gives the spans.
	jobs = jobs[:len(jobs)/2]
	rep.attempted = len(jobs)
	warm, _, _ := askPass(sess, jobs)
	check(warm)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	plain, _, plainWall := askPass(chase.NewSessionWithIndex(g, cfg, idx), jobs)
	runtime.ReadMemStats(&m1)
	st, err := traceLibrary(tr, g, idx, cfg, jobs)
	if err != nil {
		return nil, err
	}
	for i, r := range st.results {
		if r.Answer.String() != plain[i].Answer.String() {
			rep.fail(1, "question %d: traced answer %q differs from untraced %q", i, r.Answer, plain[i].Answer)
		}
	}
	if err := tr.dump(filepath.Join(dir, "spans.jsonl")); err != nil {
		return nil, err
	}
	n := len(jobs)
	rep.per("graphload.open_ms", median(opens), "ms", len(opens))
	rep.per("graphload.pll_restored", 1, "bool", 1)
	st.report(rep, true)
	starCache(rep, st.cache)
	rep.per("runtime.alloc_mb_per_question", float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20)/float64(n), "MB", n)
	rep.per("runtime.gc_cycles", float64(m1.NumGC-m0.NumGC), "count", n)
	rep.per("runtime.gc_pause_ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6, "ms", n)
	rep.per("trace.overhead_pct", (st.wall.Seconds()/plainWall.Seconds()-1)*100, "%", n)
	noServer(rep)
	printSelfTimes(tr)
	return rep, nil
}

// noServer reports the server-side metrics as zero on the library
// workload, where no server, answer cache or open loop runs.
func noServer(rep *report) {
	zero := map[string]string{
		"anscache.hit_ratio": "ratio", "anscache.coalesced": "count", "anscache.evictions": "count",
		"serve.chase_ms": "ms", "serve.overhead_ms_p50": "ms", "serve.overhead_ms_p90": "ms",
		"serve.admitted": "count", "serve.rejected_full": "count", "serve.response_bytes": "bytes",
		"serve.cpu_ms_per_request": "ms", "serve.saturated_rps": "1/s", "serve.max_rps_at_slo": "1/s",
		"gen.lateness_ms_p90": "ms", "gen.backlog_max": "count",
	}
	for _, r := range []string{"r1", "r2", "r3"} {
		zero["serve.latency_ms_p50."+r] = "ms"
		zero["serve.latency_ms_p90."+r] = "ms"
	}
	for name, unit := range zero {
		rep.per(name, 0, unit, 0)
	}
}

// printSetups prints the spread of a run's cold starts.
func printSetups(setups []float64) {
	fmt.Printf("# cold starts: n=%d min=%.2fms p25=%.2fms p50=%.2fms p75=%.2fms max=%.2fms\n", len(setups),
		quantile(setups, 0)*1e3, quantile(setups, 0.25)*1e3, quantile(setups, 0.5)*1e3, quantile(setups, 0.75)*1e3, quantile(setups, 1)*1e3)
}
