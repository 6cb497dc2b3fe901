package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"

	"wqe/internal/datagen"
	"wqe/internal/distindex"
	"wqe/internal/exemplar"
	"wqe/internal/graph"
	"wqe/internal/match"
	"wqe/internal/query"
)

// Workload sizes, calibrated on a 2-vCPU VM so that one run
// measures for about -seconds at the commit that defined the benchmark
// and holds enough questions for a p90 with ten samples beyond it.
const (
	// ask-large: a watdiv-like graph whose snapshot carries PLL labels,
	// answered by AnsHeu at about 65 ms per question, so a run holds a
	// few hundred questions: per-question cost is heavy-tailed, and
	// fewer questions leave the run-to-run spread wider than the bounds.
	askDataset = datagen.DatasetProducts
	askNodes   = 4000 // generator size; ~3.6k nodes, ~9k edges
	askPerSec  = 13   // questions per measured second
	askMin     = 20

	// serve-repeat: a dbpedia-like graph below distindex.Auto's PLL
	// threshold, so the server's sessions use the BFS distance oracle.
	serveDataset = datagen.DatasetKnowledge
	serveNodes   = 7000

	repeatPool = 64 // serve-repeat's question pool, far below the 4096-entry answer cache
)

// repeatRates are serve-repeat's ladder rates in requests per second,
// lowest first, set from the capacity measured on a 2-vCPU VM: 5000 to
// 7000 cache hits per second over two connections when the shared host
// is quiet, 2200 to 3300 when it is busy. The top rung queues in quiet
// periods and overloads in busy ones; the lowest stays far below either.
var repeatRates = []float64{500, 1500, 3000}

// askLabels fixes ask-large's mix of focus entity types, per block of
// twenty questions, near the mix unconstrained generation produces.
// Question cost differs several-fold between types (users and products
// have the largest neighbourhoods), so a fixed mix keeps the workload's
// cost from drifting with the seed's draw of types.
var askLabels = []string{"Product", "User", "Product", "Review", "Product", "User", "Retailer",
	"Product", "User", "Review", "Product", "User", "Product", "Brand", "Product", "Review",
	"User", "Product", "Retailer", "Product"}

// endpointMix is the endpoint weights of serve-repeat's pool: per block
// of ten questions, four /askfast, two /whymany, two /whyempty, one /ask
// (AnsW) and one /why.
var endpointMix = []string{"/askfast", "/askfast", "/askfast", "/askfast",
	"/whymany", "/whymany", "/whyempty", "/whyempty", "/ask", "/why"}

// whySpec is the question spec of BENCH_load: tree-shaped queries with
// two edges and at most two predicates per node.
var whySpec = datagen.WhySpec{
	Query:      datagen.QuerySpec{Shape: query.TopoTree, Edges: 2, MaxPredicates: 2, PathEdgeProb: 0.2},
	DisturbOps: 3,
	MaxTuples:  5,
}

// questionRec is one generated Why-question as stored on disk.
type questionRec struct {
	Endpoint string          `json:"endpoint,omitempty"`
	Query    json.RawMessage `json:"query"`
	Exemplar json.RawMessage `json:"exemplar"`
}

// step is one rung of a serve ladder.
type step struct {
	rate    float64
	seconds float64
	count   int
}

// ladder splits the measured seconds over the rates so every rung gets
// the same number of requests (the lowest rate runs longest).
func ladder(rates []float64, seconds float64) []step {
	inv := 0.0
	for _, r := range rates {
		inv += 1 / r
	}
	per := max(1, int(math.Round(seconds/inv)))
	out := make([]step, len(rates))
	for i, r := range rates {
		out[i] = step{rate: r, seconds: float64(per) / r, count: per}
	}
	return out
}

// questionCount is how many distinct questions a workload's inputs hold.
func questionCount(workload string, seconds float64) int {
	if workload == "ask-large" {
		return max(askMin, int(math.Ceil(seconds*askPerSec)))
	}
	return repeatPool
}

// generate writes one workload's inputs into dir: graph.snap (with PLL
// labels for ask-large) and questions.jsonl. It runs in its own process
// so that its memory never shows in the measured process's peak RSS.
func generate(workload string, seed int64, seconds float64, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	dataset, nodes := serveDataset, serveNodes
	if workload == "ask-large" {
		dataset, nodes = askDataset, askNodes
	}
	g, err := datagen.Generate(dataset, nodes, seed)
	if err != nil {
		return err
	}
	var idx distindex.Index = distindex.NewBFS(g)
	var aux []byte
	if workload == "ask-large" {
		pll := distindex.NewPLLParallel(g, 0)
		idx, aux = pll, pll.Marshal()
	}
	if err := writeFile(filepath.Join(dir, "graph.snap"), func(w *bufio.Writer) error {
		return g.WriteSnapshot(w, aux)
	}); err != nil {
		return err
	}
	var labels []string
	if workload == "ask-large" {
		labels = askLabels
	}
	recs, err := genQuestions(g, idx, questionCount(workload, seconds), seed, labels)
	if err != nil {
		return err
	}
	if workload == "serve-repeat" {
		// The Zipf rank of a pool question is its index, so a fixed
		// endpoint per rank keeps the endpoint mix of the traffic the
		// same for every seed.
		for i := range recs {
			recs[i].Endpoint = endpointMix[i%len(endpointMix)]
		}
	}
	return writeFile(filepath.Join(dir, "questions.jsonl"), func(w *bufio.Writer) error {
		enc := json.NewEncoder(w)
		for _, r := range recs {
			if err := enc.Encode(r); err != nil {
				return err
			}
		}
		return nil
	})
}

// genQuestions draws n distinct Why-questions with a cache-less matcher;
// question i focuses on labels[i%len(labels)] when labels are given.
func genQuestions(g *graph.Graph, idx distindex.Index, n int, seed int64, labels []string) ([]questionRec, error) {
	m := match.NewMatcher(g, idx, nil)
	rng := rand.New(rand.NewSource(seed + 7))
	seen := map[string]bool{}
	var out []questionRec
	for tries := 0; len(out) < n && tries < n*20; tries++ {
		spec := whySpec
		if len(labels) > 0 {
			spec.Query.FocusLabel = labels[len(out)%len(labels)]
		}
		inst, ok := datagen.GenWhy(g, m, spec, rng)
		if !ok {
			continue
		}
		key := inst.Q.Key() + "\x00" + inst.E.String()
		if seen[key] {
			continue
		}
		seen[key] = true
		rec, err := encodeQuestion(inst.Q, inst.E)
		if err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
	if len(out) < n {
		return nil, fmt.Errorf("generated only %d of %d distinct questions", len(out), n)
	}
	return out, nil
}

func encodeQuestion(q *query.Query, e *exemplar.Exemplar) (questionRec, error) {
	var qb, eb bytes.Buffer
	if err := q.WriteJSON(&qb); err != nil {
		return questionRec{}, err
	}
	if err := e.WriteJSON(&eb); err != nil {
		return questionRec{}, err
	}
	return questionRec{Query: compact(qb.Bytes()), Exemplar: compact(eb.Bytes())}, nil
}

func compact(b []byte) json.RawMessage {
	var out bytes.Buffer
	if err := json.Compact(&out, b); err != nil {
		return b
	}
	return out.Bytes()
}

// readQuestions loads questions.jsonl.
func readQuestions(path string) ([]questionRec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []questionRec
	dec := json.NewDecoder(bufio.NewReader(f))
	for dec.More() {
		var r questionRec
		if err := dec.Decode(&r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// parsed is a question decoded for the library.
type parsed struct {
	q *query.Query
	e *exemplar.Exemplar
}

func parseQuestion(r questionRec) (parsed, error) {
	q, err := query.ReadJSON(bytes.NewReader(r.Query))
	if err != nil {
		return parsed{}, err
	}
	e, err := exemplar.ReadJSON(bytes.NewReader(r.Exemplar))
	if err != nil {
		return parsed{}, err
	}
	return parsed{q, e}, nil
}

func writeFile(path string, fill func(*bufio.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<16)
	if err := fill(w); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// makeInputs runs the generator in a child process (its time is not
// part of any metric) and returns the input directory.
func makeInputs(e *env) (string, error) {
	dir := filepath.Join(e.work, fmt.Sprintf("%s-%d-%g", e.workload, e.seed, e.seconds))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	cmd := childCommand(e.self, "-gen", dir, "-workload", e.workload,
		"-seed", fmt.Sprint(e.seed), "-seconds", fmt.Sprint(e.seconds))
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("generate inputs: %w", err)
	}
	return dir, nil
}
