// Command perfbench is Lusail's end-to-end benchmark. It runs one seeded
// workload against the program's public entry points, checks every answer
// against centralized evaluation, and prints the end-to-end metrics (or,
// with --trace 1, the per-layer metrics) as the last line of its output:
//
//	go run . --workload lubm-http --seed 1 --seconds 20 --trace 0
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"lusail/internal/sparql"
)

// setups is how many times a run sets the workload up; setup_s is the
// median, and the first set-up is the one measured.
const setups = 3

var workloads = []*workload{lubmHTTPWorkload(), lubmDiskWorkload(), lrbServiceWorkload()}

func findWorkload(name string) (*workload, bool) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, true
		}
	}
	return nil, false
}

// options are one run's settings.
type options struct {
	seed    int64
	seconds time.Duration
	trace   bool
	workDir string
	commit  string
	small   bool
}

// result is the last line of the output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	processStart := time.Now()
	var names []string
	for _, wl := range workloads {
		names = append(names, wl.name)
	}
	name := flag.String("workload", "", fmt.Sprintf("workload to run: %v", names))
	seed := flag.Int64("seed", 1, "seed of the request sequence")
	seconds := flag.Int("seconds", 20, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 runs an untraced and a traced half and reports per-layer metrics")
	workDir := flag.String("workdir", ".bench_build", "scratch directory for stores, caches, reports and spans")
	commit := flag.String("commit", "unknown", "commit under test, for the report")
	flag.Parse()
	wl, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	opts := options{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		trace:   *trace == 1,
		workDir: *workDir,
		commit:  *commit,
	}
	rep, res, tr, err := run(context.Background(), wl, opts, processStart)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printReport(os.Stdout, rep)
	base := filepath.Join(opts.workDir, fmt.Sprintf("%s-seed%d-trace%d", wl.name, opts.seed, *trace))
	if err := writeJSON(base+".report.json", rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if tr != nil {
		if err := tr.writeSpans(base + ".spans.jsonl"); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run sets the workload up several times, drives the last set-up for the
// timed phase(s), verifies every answer, and summarizes. The tracer it
// returns holds the traced phase's spans (nil for untraced runs).
func run(ctx context.Context, wl *workload, o options, processStart time.Time) (*report, *result, *tracer, error) {
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		return nil, nil, nil, err
	}
	e := &env{workDir: o.workDir, small: o.small}
	if o.trace {
		e.tr = newTracer()
	}
	keepRows := make([]int, len(wl.shapes))
	for i, q := range wl.shapes {
		parsed, err := sparql.Parse(q.Text)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("%s %s: %w", wl.name, q.Name, err)
		}
		if parsed.Limit >= 0 && len(parsed.OrderBy) == 0 {
			keepRows[i] = parsed.Limit
		}
	}

	rep := &report{
		Workload:   wl.name,
		Seed:       o.seed,
		Seconds:    int(o.seconds / time.Second),
		Trace:      o.trace,
		Commit:     o.commit,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Clients:    wl.clients,
	}
	// A set-up builds data, endpoints, servers and engine and runs a
	// warm-up pass over every shape; the first is timed from process start.
	var warm []outcome
	setUp := func(start time.Time) (*sut, error) {
		s, err := wl.setup(ctx, e)
		if err != nil {
			return nil, fmt.Errorf("%s setup: %w", wl.name, err)
		}
		for j, q := range wl.shapes {
			warm = append(warm, s.exec(ctx, 0, request{Shape: j, Text: q.Text, KeepRows: keepRows[j]}))
		}
		rep.SetupS = append(rep.SetupS, time.Since(start).Seconds())
		return s, nil
	}
	s, err := setUp(processStart)
	if err != nil {
		return nil, nil, nil, err
	}

	text := func(shape int) string { return wl.shapes[shape].Text }
	if wl.texts != nil {
		text = wl.texts(s, o.seed, wl.shapes)
	}
	seq := newSequencer(o.seed, keepRows, text)
	runtime.GC()
	var phases []*phase
	if !o.trace {
		phases = append(phases, runPhase(ctx, "untraced", s, seq, wl.clients, o.seconds))
	} else {
		// Half the run untraced, half traced, back to back on one set-up:
		// the difference between the halves is the tracing overhead.
		half := o.seconds / 2
		phases = append(phases, runPhase(ctx, "untraced", s, seq, wl.clients, half))
		e.tr.on.Store(true)
		p := runPhase(ctx, "traced", s, seq, wl.clients, o.seconds-half)
		e.tr.on.Store(false)
		p.traced = true
		p.layers = &e.tr.c
		p.spans = e.tr.recorded()
		phases = append(phases, p)
	}
	s.close()
	// The other set-ups run after the timed phase, so the setup_s median
	// samples the machine at both ends of the run, not at one moment.
	for i := 1; i < setups; i++ {
		runtime.GC()
		extra, err := setUp(time.Now())
		if err != nil {
			return nil, nil, nil, err
		}
		extra.close()
	}

	// Verification: every answer, warm-up included, against centralized
	// evaluation over the union of the federation's data.
	orc, err := newOracle(s.data, s.dataKey, filepath.Join(o.workDir, "oracle"))
	if err != nil {
		return nil, nil, nil, err
	}
	errs := map[string]int{}
	check := func(out *outcome) error {
		if out.err != nil {
			errs[fmt.Sprintf("%s: %v", wl.shapes[out.req.Shape].Name, out.err)]++
			return nil
		}
		a, err := orc.answer(out.req.Text)
		if err != nil {
			return err
		}
		if out.wrong = a.check(out.digest, out.rowHashes); out.wrong != nil {
			errs[fmt.Sprintf("%s: wrong answer: %v", wl.shapes[out.req.Shape].Name, out.wrong)]++
		}
		return nil
	}
	for i := range warm {
		if err := check(&warm[i]); err != nil {
			return nil, nil, nil, err
		}
	}
	for _, p := range phases {
		for i := range p.outcomes {
			if err := check(&p.outcomes[i]); err != nil {
				return nil, nil, nil, err
			}
		}
	}

	res := &result{Correct: len(errs) == 0, Metrics: map[string]value{}}
	for _, p := range phases {
		ps := summarizePhase(wl, p)
		rep.Phases = append(rep.Phases, ps)
		res.Attempted += ps.Attempted
		res.Failed += ps.Failed + ps.Wrong
	}
	if !o.trace {
		for k, v := range rep.Phases[0].Metrics {
			res.Metrics[k] = v
		}
		res.Metrics["setup_s"] = value{median(rep.SetupS), "s"}
	} else {
		for k, v := range rep.Phases[1].Layers {
			res.Metrics[k] = v
		}
		for k, v := range traceOverhead(rep.Phases[0], rep.Phases[1]) {
			res.Metrics[k] = v
		}
	}
	for msg, n := range errs {
		rep.Errors = append(rep.Errors, fmt.Sprintf("%dx %s", n, msg))
	}
	sort.Strings(rep.Errors)
	rep.Correct = res.Correct
	rep.ResultMetric = res.Metrics
	return rep, res, e.tr, nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
