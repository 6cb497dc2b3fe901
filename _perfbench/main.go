// Command perfbench is the repository's benchmark: it generates its
// inputs from a seed, runs one named workload against the why-question
// engine (in-process) or its server (cmd/wqe-serve as a subprocess),
// checks the answers independently, and prints every metric with its
// unit and sample count. The last line of standard output is the
// machine-readable result:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones of BENCHMARK.json,
// measured with no wrappers or probes; with -trace 1 a traced run records
// spans in memory around the calls into each layer and reports the
// per-layer metrics instead. See README.md for the workloads.
//
// Run it from the repository root through run.sh, which builds this
// package and the server into .bench_build:
//
//	bash _perfbench/run.sh --workload ask-large --seed 1 --seconds 30 --trace 0
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// workloads maps each workload name to its runner.
var workloads = map[string]func(*env) (*report, error){
	"ask-large":    runAskLarge,
	"serve-repeat": runServeRepeat,
}

// env is one invocation's parameters.
type env struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string // checkout root (the working directory)
	work     string // directory for generated inputs, raw samples and spans
	self     string // this binary, re-executed to generate inputs
	serveBin string // the wqe-serve binary for serve-repeat
}

func main() {
	os.Exit(run())
}

func run() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "workload name: ask-large or serve-repeat")
		seed     = fs.Int64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds  = fs.Float64("seconds", 30, "measured seconds per run")
		trace    = fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		work     = fs.String("work", ".bench_build/work", "directory for generated inputs and span dumps")
		serveBin = fs.String("serve-bin", ".bench_build/wqe-serve", "wqe-serve binary")
		gen      = fs.String("gen", "", "internal: generate the workload's inputs into this directory and exit")
	)
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	if _, ok := workloads[*workload]; !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown -workload %q\n", *workload)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	if *gen != "" {
		if err := generate(*workload, *seed, *seconds, *gen); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: gen:", err)
			return 1
		}
		return 0
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if !filepath.IsAbs(*work) {
		*work = filepath.Join(root, *work)
	}
	e := &env{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		root: root, work: *work, self: self, serveBin: *serveBin,
	}
	declared, err := declaredMetrics(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	printStamp(e)
	rep, err := workloads[e.workload](e)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	want := declared.EndToEnd
	if e.trace {
		want = declared.PerLayer
	}
	if err := rep.emit(os.Stdout, want, e.trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// row is one reported metric with the number of samples behind it.
type row struct {
	value   float64
	unit    string
	samples int
}

// report collects one run's metrics and its operation accounting.
type report struct {
	e2e       map[string]row
	layer     map[string]row
	extra     map[string]row // printed with the end-to-end table, not gated
	attempted int
	failed    int
	notes     []string
}

func newReport() *report {
	return &report{e2e: map[string]row{}, layer: map[string]row{}, extra: map[string]row{}}
}

// info records a number the untraced run prints but does not report.
func (r *report) info(name string, v float64, unit string, n int) {
	r.extra[name] = row{v, unit, n}
}

func (r *report) end(name string, v float64, unit string, n int) {
	r.e2e[name] = row{v, unit, n}
}

func (r *report) per(name string, v float64, unit string, n int) {
	r.layer[name] = row{v, unit, n}
}

// fail records failed operations with a reason for the log.
func (r *report) fail(n int, format string, args ...interface{}) {
	if n <= 0 {
		return
	}
	r.failed += n
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// maxNotes caps the failure lines a run prints.
const maxNotes = 20

// emit prints the human-readable table and then the result line. The
// metric set must be exactly the declared one.
func (r *report) emit(w io.Writer, want []metricDecl, traced bool) error {
	rows := r.e2e
	if traced {
		rows = r.layer
	}
	for i, n := range r.notes {
		if i == maxNotes {
			fmt.Fprintf(w, "# failure: ... %d more\n", len(r.notes)-maxNotes)
			break
		}
		fmt.Fprintln(w, "# failure:", n)
	}
	fmt.Fprintf(w, "# operations attempted=%d failed=%d error_rate=%.6g\n",
		r.attempted, r.failed, ratio(float64(r.failed), float64(r.attempted)))
	print := func(title string, m map[string]row) {
		names := make([]string, 0, len(m))
		for n := range m {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(w, "# %s\n", title)
		for _, n := range names {
			x := m[n]
			fmt.Fprintf(w, "#   %-34s %14.6g %-6s n=%d\n", n, x.value, x.unit, x.samples)
		}
	}
	if traced {
		print("per-layer metrics (traced run)", r.layer)
	} else {
		print("end-to-end metrics (untraced run)", r.e2e)
		print("also measured, not gated", r.extra)
	}
	out := map[string]map[string]interface{}{}
	for _, d := range want {
		x, ok := rows[d.Name]
		if !ok {
			return fmt.Errorf("metric %q declared in BENCHMARK.json was not measured", d.Name)
		}
		if x.unit != d.Unit {
			return fmt.Errorf("metric %q measured in %s, declared in %s", d.Name, x.unit, d.Unit)
		}
		if math.IsNaN(x.value) || math.IsInf(x.value, 0) {
			return fmt.Errorf("metric %q has no value (%v)", d.Name, x.value)
		}
		out[d.Name] = map[string]interface{}{"value": x.value, "unit": x.unit}
	}
	if len(rows) != len(want) {
		return fmt.Errorf("measured %d metrics, BENCHMARK.json declares %d", len(rows), len(want))
	}
	attempted := r.attempted
	if attempted < 1 {
		return fmt.Errorf("no operation was attempted")
	}
	line, err := json.Marshal(map[string]interface{}{
		"correct":   r.failed == 0,
		"attempted": attempted,
		"failed":    r.failed,
		"metrics":   out,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

type metricDecl struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchDecl struct {
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

// declaredMetrics reads the metric lists from BENCHMARK.json so the
// emitted set can never drift from the declared one.
func declaredMetrics(path string) (*benchDecl, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read benchmark declaration: %w", err)
	}
	var d benchDecl
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &d, nil
}

// printStamp records the machine, toolchain and code the numbers come
// from, one JSON line ahead of the results.
func printStamp(e *env) {
	stamp := map[string]interface{}{
		"workload":   e.workload,
		"seed":       e.seed,
		"seconds":    e.seconds,
		"trace":      e.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model":  cpuModel(),
		"go_version": runtime.Version(),
		"commit":     commit(e.root),
		"src_sha256": sourceDigest(e.root),
	}
	line, err := json.Marshal(stamp)
	if err != nil {
		line = []byte(err.Error())
	}
	fmt.Println("# stamp", string(line))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the checkout's git commit when it is a git repository, and
// "none" otherwise; sourceDigest identifies the code either way.
func commit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "none"
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes every Go source and go.mod under root, skipping
// hidden directories and build output.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") && d.Name() != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, p) // p lies under root, so Rel cannot fail
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
