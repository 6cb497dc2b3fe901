package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"wqe/internal/anscache"
	"wqe/internal/chase"
	"wqe/internal/distindex"
	"wqe/internal/graph"
	"wqe/internal/graphload"
	"wqe/internal/match"
)

// endpoint is how one serving endpoint is called and what the library
// runs for it.
type endpoint struct {
	algo     string
	explain  bool
	maxSteps int
	reqAlgo  string // the request's "algo" field, where the endpoint takes one
}

// endpoints maps each serving endpoint to its request shape. The step
// caps keep the warmup's chases short.
var endpoints = map[string]endpoint{
	"/askfast":  {algo: "heu", maxSteps: 15},
	"/ask":      {algo: "answ", maxSteps: 8, reqAlgo: "answ"},
	"/why":      {algo: "answ", explain: true, maxSteps: 8},
	"/whymany":  {algo: "whymany", explain: true, maxSteps: 50},
	"/whyempty": {algo: "whyempty", explain: true, maxSteps: 50},
}

// request is one prepared HTTP request.
type request struct {
	q    int // index into the question records
	path string
	body []byte
}

// graphName is the resident graph's name on the server.
const graphName = "g"

func prepare(recs []questionRec) ([]request, error) {
	out := make([]request, len(recs))
	for i, r := range recs {
		ep, ok := endpoints[r.Endpoint]
		if !ok {
			return nil, fmt.Errorf("question %d: unknown endpoint %q", i, r.Endpoint)
		}
		body, err := json.Marshal(map[string]interface{}{
			"graph": graphName, "query": r.Query, "exemplar": r.Exemplar,
			"algo": ep.reqAlgo, "max_steps": ep.maxSteps,
		})
		if err != nil {
			return nil, err
		}
		out[i] = request{q: i, path: r.Endpoint, body: body}
	}
	return out, nil
}

// repeatSLOms is the p90 latency limit a ladder rung must meet.
const repeatSLOms = 20

// saturateShare is the part of the measured seconds spent sending as
// fast as the connections allow; the ladder gets the rest.
const saturateShare = 1.0 / 3

// saturateChunk is how many requests one saturating chunk sends; the
// capacity is the median of the chunks' rates.
const saturateChunk = 500

// runServeRepeat runs wqe-serve with default flags (answer cache on)
// over a small question pool: a warmup asks every pool question once,
// so the chases run and fill the answer cache; then every timed request
// is a memo hit, first on an open-loop ladder of fixed rates and then
// in a saturating phase whose achieved rate is the server's capacity.
func runServeRepeat(e *env) (*report, error) {
	dir, err := makeInputs(e)
	if err != nil {
		return nil, err
	}
	recs, err := readQuestions(filepath.Join(dir, "questions.jsonl"))
	if err != nil {
		return nil, err
	}
	reqs, err := prepare(recs)
	if err != nil {
		return nil, err
	}
	snap := filepath.Join(dir, "graph.snap")
	workers := runtime.NumCPU()

	// Cold starts: process spawn until /healthz answers 200, repeated;
	// the last server stays up for the measurement.
	var setups []float64
	var srv *server
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	for i := 0; i < setupRepeats; i++ {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return nil, err
			}
			srv = nil
		}
		s, d, err := startServer(e.serveBin, snap)
		if err != nil {
			return nil, err
		}
		srv = s
		setups = append(setups, d.Seconds())
	}
	printSetups(setups)
	transport := &http.Transport{MaxConnsPerHost: workers, MaxIdleConnsPerHost: workers, DisableCompression: true}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport, Timeout: 60 * time.Second}
	base := "http://" + srv.addr

	// Warmup, outside the timed window: every pool question once, each
	// a chase whose answer the memo stores.
	rep := newReport()
	warm, _ := openLoop(client, base, reqs, make([]time.Duration, len(reqs)), workers)
	for _, s := range warm {
		if s.err != nil || s.status != http.StatusOK {
			return nil, fmt.Errorf("warmup request failed: status %d, %v", s.status, s.err)
		}
	}

	rng := rand.New(rand.NewSource(e.seed + 29))
	zipf := newZipf(len(reqs), repeatSkew)
	draw := func(n int) []request {
		out := make([]request, n)
		for i := range out {
			out[i] = reqs[zipf.draw(rng)]
		}
		return out
	}
	before, err := fetchStats(client, base)
	if err != nil {
		return nil, err
	}
	var rungs []stepResult
	for k, s := range ladder(repeatRates, e.seconds*(1-saturateShare)) {
		due := schedule(rand.New(rand.NewSource(e.seed*1000+int64(k))), s)
		samples, start := openLoop(client, base, draw(s.count), due, workers)
		for i := range samples {
			samples[i].rung = k + 1
		}
		rungs = append(rungs, analyzeStep(s, samples, start, repeatSLOms))
	}
	// Saturating phase: chunks sent with a zero schedule until its share
	// of the seconds is spent.
	var saturated []sample
	var chunkRates []float64
	zero := make([]time.Duration, saturateChunk)
	cpu0, err := cpuSeconds(srv.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	for end := time.Now().Add(time.Duration(e.seconds * saturateShare * float64(time.Second))); len(chunkRates) == 0 || time.Now().Before(end); {
		samples, start := openLoop(client, base, draw(saturateChunk), zero, workers)
		r := analyzeStep(step{}, samples, start, repeatSLOms)
		chunkRates = append(chunkRates, float64(r.ok)/r.wall)
		saturated = append(saturated, samples...)
	}
	cpu1, err := cpuSeconds(srv.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	after, err := fetchStats(client, base)
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB(srv.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	if err := srv.stop(); err != nil {
		return nil, err
	}
	srv = nil

	var timed []sample
	for _, r := range rungs {
		timed = append(timed, r.samples...)
	}
	if err := writeSamples(filepath.Join(dir, "requests.tsv"), append(append([]sample(nil), timed...), saturated...)); err != nil {
		return nil, err
	}

	// Correctness, outside the timed window: every response must equal
	// the library's answer to the same question (elapsed_ms aside).
	res, err := graphload.Open(snap)
	if err != nil {
		return nil, err
	}
	jobs := make([]libJob, len(recs))
	for i, r := range recs {
		p, err := parseQuestion(r)
		if err != nil {
			return nil, err
		}
		ep := endpoints[r.Endpoint]
		jobs[i] = libJob{p: p, algo: ep.algo, maxSteps: ep.maxSteps}
	}
	// chase.DefaultConfig has the cost-model values of wqe-serve's
	// default flags (budget 3, θ 1, λ 1, bound cap 3); it leaves out the
	// answer cache, which returns the same answer.
	cfg := chase.DefaultConfig()
	res.G.WarmCaches()
	// The snapshot carries no PLL labels; pick the oracle the server's
	// session picked, so the traced pass can wrap it.
	idx := distindex.Auto(res.G)
	lib := chase.NewSessionWithIndex(res.G, cfg, idx)
	want := make([][]byte, len(jobs))
	for i, j := range jobs {
		r := lib.Run(j.batch())
		if r.Err != nil {
			return nil, fmt.Errorf("library answer to question %d: %w", i, r.Err)
		}
		if want[i], err = render(res.G, r, recs[i].Endpoint); err != nil {
			return nil, err
		}
	}
	checked := append(append(append([]sample(nil), warm...), timed...), saturated...)
	rep.attempted = len(checked)
	mismatch := ""
	for _, s := range checked {
		if s.err != nil || s.status != http.StatusOK {
			rep.fail(1, "%s question %d: status %d, %v", s.req.path, s.req.q, s.status, s.err)
			continue
		}
		got, err := normalize(s.body)
		if err != nil || !bytes.Equal(got, want[s.req.q]) {
			rep.fail(1, "%s question %d: response differs from the library's answer", s.req.path, s.req.q)
			if mismatch == "" {
				mismatch = fmt.Sprintf("got  %s\nwant %s", got, want[s.req.q])
			}
		}
	}
	if mismatch != "" {
		fmt.Fprintln(os.Stderr, "perfbench: first mismatch:\n"+mismatch)
	}
	printLadder(rungs)
	cpuPerReq := (cpu1 - cpu0) * 1000 / float64(len(saturated))
	fmt.Printf("# saturating: n=%d in %d chunks, median %.1f req/s (min %.1f, max %.1f), server CPU %.4f ms/request\n",
		len(saturated), len(chunkRates), median(chunkRates), quantile(chunkRates, 0), quantile(chunkRates, 1), cpuPerReq)

	if !e.trace {
		// The gated numbers are the lowest rung's, far below capacity
		// even when the shared host runs slow: its completed rate stays
		// at the offered rate unless the server falls behind, and its
		// latency is the cache-hit path's without queueing. The upper
		// rungs and the saturating phase, whose figures follow the
		// host's load, are per-layer metrics.
		r1 := rungs[0]
		lat := r1.lat
		rep.end("setup_s", median(setups), "s", len(setups))
		rep.end("questions_per_s", float64(r1.ok)/r1.wall, "1/s", r1.ok)
		rep.end("latency_ms_p50", median(lat), "ms", len(lat))
		// The p90 is printed, not gated: its run-to-run spread on a
		// 2-CPU VM exceeds any allowed bound (README.md).
		rep.info("latency_ms_p90", quantile(lat, 0.9), "ms", len(lat))
		rep.info("latency_ms_p90_samples_beyond", float64(beyond(lat, 0.9)), "count", len(lat))
		rep.end("peak_rss_mb", rss, "MB", 1)
		return rep, nil
	}

	// Traced run: request spans from the timestamps every run records,
	// the warmup's chases from their elapsed_ms, and a traced library
	// pass over the pool.
	tr := newTracer()
	var chaseMS []float64
	for i, s := range warm {
		c, err := elapsedMS(s.body)
		if err != nil {
			return nil, fmt.Errorf("warmup question %d: %w", s.req.q, err)
		}
		chaseMS = append(chaseMS, c)
		root := tr.add("warmup", -1, i, tr.at(s.sent), tr.at(s.done))
		tr.add("serve.chase", root, i, tr.at(s.sent), tr.at(s.sent)+int64(c*1e6))
	}
	for i, s := range timed {
		root := tr.add("request", -1, len(warm)+i, tr.at(s.due), tr.at(s.done))
		tr.add("client.wait", root, len(warm)+i, tr.at(s.due), tr.at(s.ready))
		tr.add("gen.late", root, len(warm)+i, tr.at(s.ready), tr.at(s.sent))
		tr.add("http", root, len(warm)+i, tr.at(s.sent), tr.at(s.done))
	}
	// The oracle pass above warmed the heap; an untraced pass on a fresh
	// session is the baseline for the tracing overhead.
	_, _, libWall := askPass(chase.NewSessionWithIndex(res.G, cfg, idx), jobs)
	st, err := traceLibrary(tr, res.G, idx, cfg, jobs)
	if err != nil {
		return nil, err
	}
	if err := tr.dump(filepath.Join(dir, "spans.jsonl")); err != nil {
		return nil, err
	}
	st.report(rep, false)
	d := after.delta(before)
	starCache(rep, d.Cache)
	ac := d.AnswerCache
	rep.per("anscache.hit_ratio", ratio(float64(ac.Hits), float64(ac.Hits+ac.Misses+ac.Coalesced)), "ratio", int(ac.Hits+ac.Misses+ac.Coalesced))
	rep.per("anscache.coalesced", float64(ac.Coalesced), "count", 1)
	rep.per("anscache.evictions", float64(ac.Evictions), "count", 1)
	// Every timed request is a memo hit, so no chase runs in it: its
	// time from send to response is the server's overhead (decode,
	// admission, memo lookup, encode) plus transport.
	var overhead, bytesN, late []float64
	backlog := 0
	for _, s := range timed {
		overhead = append(overhead, ms(s.done.Sub(s.sent)))
		bytesN = append(bytesN, float64(len(s.body)))
		late = append(late, ms(s.lateness()))
		backlog = max(backlog, s.backlog)
	}
	n := len(timed)
	rep.per("serve.chase_ms", median(chaseMS), "ms", len(chaseMS))
	rep.per("serve.overhead_ms_p50", median(overhead), "ms", n)
	rep.per("serve.overhead_ms_p90", quantile(overhead, 0.9), "ms", n)
	rep.per("serve.admitted", float64(d.Requests.Admitted), "count", 1)
	rep.per("serve.rejected_full", float64(d.Requests.RejectedFull), "count", 1)
	rep.per("serve.response_bytes", median(bytesN), "bytes", n)
	rep.per("serve.cpu_ms_per_request", cpuPerReq, "ms", len(saturated))
	rep.per("serve.saturated_rps", median(chunkRates), "1/s", len(chunkRates))
	maxRate := 0.0
	for k, r := range rungs {
		name := fmt.Sprintf("r%d", k+1)
		rep.per("serve.latency_ms_p50."+name, median(r.lat), "ms", len(r.lat))
		rep.per("serve.latency_ms_p90."+name, quantile(r.lat, 0.9), "ms", len(r.lat))
		if !r.over {
			maxRate = r.rate
		}
	}
	rep.per("serve.max_rps_at_slo", maxRate, "1/s", len(rungs))
	rep.per("gen.lateness_ms_p90", quantile(late, 0.9), "ms", n)
	rep.per("gen.backlog_max", float64(backlog), "count", n)
	// The request path is traced from timestamps that untraced runs
	// record too; the tracing cost is the library pass's.
	rep.per("trace.overhead_pct", (st.wall.Seconds()/libWall.Seconds()-1)*100, "%", len(jobs))
	// The server's own graph load, as its /stats reports it.
	gs := after.Graphs[graphName]
	rep.per("graphload.open_ms", gs.LoadMS, "ms", 1)
	rep.per("graphload.pll_restored", boolf(gs.PLLRestored), "bool", 1)
	// The Go runtime metrics are the in-process library's (ask-large).
	rep.per("runtime.alloc_mb_per_question", 0, "MB", 0)
	rep.per("runtime.gc_cycles", 0, "count", 0)
	rep.per("runtime.gc_pause_ms", 0, "ms", 0)
	printSelfTimes(tr)
	return rep, nil
}

// elapsedMS reads a response's elapsed_ms: the server's chase time, or
// for a memo hit the stored chase time it replays.
func elapsedMS(body []byte) (float64, error) {
	var r struct {
		ElapsedMS *float64 `json:"elapsed_ms"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return 0, err
	}
	if r.ElapsedMS == nil {
		return 0, fmt.Errorf("response has no elapsed_ms")
	}
	return *r.ElapsedMS, nil
}

// askResponse mirrors wqe-serve's response body.
type askResponse struct {
	Graph       string   `json:"graph"`
	Algo        string   `json:"algo"`
	Rewrite     string   `json:"rewrite"`
	Ops         []string `json:"ops"`
	Cost        float64  `json:"cost"`
	Closeness   float64  `json:"closeness"`
	Satisfied   bool     `json:"satisfied"`
	Matches     []int64  `json:"matches"`
	Steps       int      `json:"steps"`
	States      int      `json:"states"`
	ElapsedMS   float64  `json:"elapsed_ms"`
	Diff        []string `json:"diff,omitempty"`
	Explanation string   `json:"explanation,omitempty"`
}

// render is the library's answer in the server's response shape, with
// elapsed_ms zeroed.
func render(g *graph.Graph, r chase.BatchResult, path string) ([]byte, error) {
	ep := endpoints[path]
	a := r.Answer
	out := askResponse{Graph: graphName, Algo: ep.algo, Rewrite: a.Query.String(), Ops: []string{},
		Cost: a.Cost, Closeness: a.Closeness, Satisfied: a.Satisfied, Matches: []int64{},
		Steps: r.Steps, States: r.States}
	for _, o := range a.Ops {
		out.Ops = append(out.Ops, o.String())
	}
	for _, v := range a.Matches {
		out.Matches = append(out.Matches, int64(v))
	}
	if ep.explain {
		out.Diff = []string{}
		for _, d := range a.Diff {
			out.Diff = append(out.Diff, d.String())
		}
		out.Explanation = a.Explain(g)
	}
	return json.Marshal(out)
}

// normalize re-encodes a response body with elapsed_ms zeroed.
func normalize(body []byte) ([]byte, error) {
	var r askResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, err
	}
	r.ElapsedMS = 0
	return json.Marshal(r)
}

// server is one running wqe-serve process.
type server struct {
	cmd    *exec.Cmd
	addr   string
	exited chan error
}

// startServer spawns wqe-serve on an ephemeral port with default flags
// and returns once /healthz answers 200, with the time that took.
func startServer(bin, snap string) (*server, time.Duration, error) {
	start := time.Now()
	watch := &addrWatcher{found: make(chan string, 1)}
	cmd := childCommand(bin, "-addr", "127.0.0.1:0", "-graph", graphName+"="+snap)
	cmd.Stdout, cmd.Stderr = watch, os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start wqe-serve: %w", err)
	}
	s := &server{cmd: cmd, exited: make(chan error, 1)}
	go func() { s.exited <- cmd.Wait() }()
	select {
	case s.addr = <-watch.found:
	case err := <-s.exited:
		s.cmd = nil
		return nil, 0, fmt.Errorf("wqe-serve exited before listening: %v", err)
	case <-time.After(60 * time.Second):
		s.stop()
		return nil, 0, fmt.Errorf("wqe-serve did not listen within 60s")
	}
	client := &http.Client{Timeout: time.Second}
	for {
		resp, err := client.Get("http://" + s.addr + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				client.CloseIdleConnections()
				return s, time.Since(start), nil
			}
		}
		if time.Since(start) > 60*time.Second {
			s.stop()
			return nil, 0, fmt.Errorf("wqe-serve /healthz not ready within 60s: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop drains the server with SIGTERM and waits for it to exit,
// killing it if it has not within 20 seconds.
func (s *server) stop() error {
	if s.cmd == nil {
		return nil
	}
	s.cmd.Process.Signal(syscall.SIGTERM)
	var err error
	select {
	case err = <-s.exited:
		// A server stopped right after /healthz answered may not have
		// installed its drain handler yet and dies of the signal itself.
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			if ws, ok := ee.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
				err = nil
			}
		}
	case <-time.After(20 * time.Second):
		s.cmd.Process.Kill()
		err = <-s.exited
		err = fmt.Errorf("wqe-serve did not drain within 20s (killed): %v", err)
	}
	s.cmd = nil
	return err
}

// addrWatcher receives the server's standard output and reports the
// address from its "listening on" line.
type addrWatcher struct {
	mu    sync.Mutex
	buf   strings.Builder
	found chan string
	done  bool
}

func (w *addrWatcher) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.done {
		return len(p), nil
	}
	w.buf.Write(p)
	const marker = "listening on "
	s := w.buf.String()
	if i := strings.Index(s, marker); i >= 0 {
		rest := s[i+len(marker):]
		if j := strings.IndexAny(rest, " \n"); j >= 0 {
			w.found <- rest[:j]
			w.done = true
		}
	}
	return len(p), nil
}

// statsJSON is the part of /stats the benchmark reads.
type statsJSON struct {
	Requests struct {
		Admitted     int64 `json:"admitted"`
		RejectedFull int64 `json:"rejected_full"`
	} `json:"requests"`
	Graphs map[string]struct {
		LoadMS      float64             `json:"load_ms"`
		PLLRestored bool                `json:"pll_restored"`
		Cache       match.CacheCounters `json:"cache"`
		AnswerCache anscache.Counters   `json:"answer_cache"`
	} `json:"graphs"`
}

type statsDelta struct {
	Requests    struct{ Admitted, RejectedFull int64 }
	Cache       match.CacheCounters
	AnswerCache anscache.Counters
}

func fetchStats(client *http.Client, base string) (*statsJSON, error) {
	resp, err := client.Get(base + "/stats")
	if err != nil {
		return nil, fmt.Errorf("GET /stats: %w", err)
	}
	defer resp.Body.Close()
	var s statsJSON
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		return nil, fmt.Errorf("decode /stats: %w", err)
	}
	if _, ok := s.Graphs[graphName]; !ok {
		return nil, fmt.Errorf("/stats has no graph %q", graphName)
	}
	return &s, nil
}

// delta is the counter change from b to s; the cache weight is the
// value resident at s.
func (s *statsJSON) delta(b *statsJSON) statsDelta {
	var d statsDelta
	d.Requests.Admitted = s.Requests.Admitted - b.Requests.Admitted
	d.Requests.RejectedFull = s.Requests.RejectedFull - b.Requests.RejectedFull
	c, cb := s.Graphs[graphName].Cache, b.Graphs[graphName].Cache
	d.Cache = match.CacheCounters{Hits: c.Hits - cb.Hits, Misses: c.Misses - cb.Misses,
		Evictions: c.Evictions - cb.Evictions, Weight: c.Weight,
		AdmissionRejects: c.AdmissionRejects - cb.AdmissionRejects}
	a, ab := s.Graphs[graphName].AnswerCache, b.Graphs[graphName].AnswerCache
	d.AnswerCache = anscache.Counters{Hits: a.Hits - ab.Hits, Misses: a.Misses - ab.Misses,
		Coalesced: a.Coalesced - ab.Coalesced, Evictions: a.Evictions - ab.Evictions}
	return d
}

// repeatSkew is the Zipf exponent of serve-repeat's draws: the question
// of rank k is asked with probability proportional to 1/k^s.
const repeatSkew = 0.8

// zipf samples ranks 0..n-1 with probability proportional to
// 1/(rank+1)^s by inverting the cumulative distribution.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	z := &zipf{cdf: make([]float64, n)}
	total := 0.0
	for k := 0; k < n; k++ {
		total += math.Pow(float64(k+1), -s)
		z.cdf[k] = total
	}
	for k := range z.cdf {
		z.cdf[k] /= total
	}
	return z
}

func (z *zipf) draw(rng *rand.Rand) int {
	u := rng.Float64()
	i := sort.SearchFloat64s(z.cdf, u)
	if i >= len(z.cdf) {
		i = len(z.cdf) - 1
	}
	return i
}

// writeSamples dumps every timed request: rung ("sat" for the
// saturating phase), endpoint, question, due/ready/sent/done offsets in
// ms from the first request's due time, and status.
func writeSamples(path string, all []sample) error {
	return writeFile(path, func(w *bufio.Writer) error {
		fmt.Fprintln(w, "rung\tendpoint\tquestion\tdue_ms\tready_ms\tsent_ms\tdone_ms\tstatus")
		if len(all) == 0 {
			return nil
		}
		t0 := all[0].due
		for _, s := range all {
			rung := "sat"
			if s.rung > 0 {
				rung = fmt.Sprintf("r%d", s.rung)
			}
			fmt.Fprintf(w, "%s\t%s\t%d\t%.3f\t%.3f\t%.3f\t%.3f\t%d\n", rung, s.req.path, s.req.q,
				ms(s.due.Sub(t0)), ms(s.ready.Sub(t0)), ms(s.sent.Sub(t0)), ms(s.done.Sub(t0)), s.status)
		}
		return nil
	})
}
