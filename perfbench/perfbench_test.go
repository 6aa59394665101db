package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"lusail/internal/bench"
	"lusail/internal/client"
	"lusail/internal/rdf"
	"lusail/internal/sparql"
	"lusail/internal/store"
)

func smallEnv(t *testing.T, traced bool) *env {
	e := &env{workDir: t.TempDir(), small: true}
	if traced {
		e.tr = newTracer()
	}
	return e
}

// sequenceOf draws n requests of a workload's sequence for a seed.
func sequenceOf(t *testing.T, wl *workload, s *sut, seed int64, n int) []request {
	t.Helper()
	text := func(shape int) string { return wl.shapes[shape].Text }
	if wl.texts != nil {
		text = wl.texts(s, seed, wl.shapes)
	}
	seq := newSequencer(seed, make([]int, len(wl.shapes)), text)
	var out []request
	for i := 0; i < n; i++ {
		r, ok := seq.next(false)
		if !ok {
			t.Fatal("sequence ended before its deadline")
		}
		out = append(out, r)
	}
	return out
}

func TestSequenceIsPureFunctionOfSeed(t *testing.T) {
	lrbData := &sut{data: func() [][]rdf.Triple {
		var out [][]rdf.Triple
		for _, ds := range bench.GenerateLRB(bench.DefaultLRB()) {
			out = append(out, ds.Triples)
		}
		return out
	}}
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			n := 5 * len(wl.shapes)
			a := sequenceOf(t, wl, lrbData, 7, n)
			b := sequenceOf(t, wl, lrbData, 7, n)
			if !reflect.DeepEqual(a, b) {
				t.Fatal("two sequences drawn with the same seed differ")
			}
			c := sequenceOf(t, wl, lrbData, 8, n)
			if reflect.DeepEqual(a, c) {
				t.Fatal("sequences drawn with different seeds are identical")
			}
			// Every round holds each shape exactly once.
			for r := 0; r < 5; r++ {
				seen := map[int]bool{}
				for _, req := range a[r*len(wl.shapes) : (r+1)*len(wl.shapes)] {
					seen[req.Shape] = true
				}
				if len(seen) != len(wl.shapes) {
					t.Fatalf("round %d covers %d of %d shapes", r, len(seen), len(wl.shapes))
				}
			}
		})
	}
}

func TestLRBConstantsAreRedrawnFromTheDomain(t *testing.T) {
	s := &sut{data: func() [][]rdf.Triple {
		var out [][]rdf.Triple
		for _, ds := range bench.GenerateLRB(bench.DefaultLRB()) {
			out = append(out, ds.Triples)
		}
		return out
	}}
	shapes := bench.LRBQueries()
	text := lrbTexts(s, 1, shapes)
	s1 := -1
	for i, q := range shapes {
		switch q.Name {
		case "S1":
			s1 = i
		case "B6":
			// A FILTER substring has no domain of equal-width literals.
			if got := text(i); got != q.Text {
				t.Errorf("B6 changed:\n%s", got)
			}
		}
	}
	seen := map[string]bool{}
	for i := 0; i < 20; i++ {
		q := text(s1)
		if seen[q] {
			t.Fatal("a drug constant recurred before the domain was exhausted")
		}
		seen[q] = true
		if _, err := sparql.Parse(q); err != nil {
			t.Fatal(err)
		}
	}
}

// streamer is an endpoint that streams, standing in for any Streamer.
type streamer struct{ *client.InProcess }

func (s streamer) QueryStream(ctx context.Context, q string) (sparql.RowReader, error) {
	res, err := s.Query(ctx, q)
	if err != nil {
		return nil, err
	}
	return sparql.NewResultsReader(res), nil
}

func TestDecoratedEndpointStreamsExactlyWhenInnerDoes(t *testing.T) {
	tr := newTracer()
	inproc := client.NewInProcess("a", store.New())
	for _, tc := range []struct {
		name string
		ep   client.Endpoint
	}{
		{"in-process", inproc},
		{"http", client.NewHTTP("b", "http://127.0.0.1:1/sparql")},
		{"custom streamer", streamer{inproc}},
	} {
		_, innerStreams := tc.ep.(client.Streamer)
		_, outerStreams := traceEndpoint(tc.ep, tr, httpEndpoint).(client.Streamer)
		if innerStreams != outerStreams {
			t.Errorf("%s: inner streams=%v, decorated streams=%v", tc.name, innerStreams, outerStreams)
		}
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	parent := span{Start: 0, End: 100}
	children := []span{
		{Start: -5, End: 5},   // starts before the parent
		{Start: 10, End: 30},  // overlaps the next two
		{Start: 20, End: 50},  //
		{Start: 40, End: 60},  //
		{Start: 45, End: 55},  // nested in the one before
		{Start: 90, End: 120}, // outlives the parent
		{Start: 130, End: 140},
	}
	// Covered: [0,5) + [10,60) + [90,100) = 65.
	if got := selfTime(parent, children); got != 35 {
		t.Fatalf("self time %d, want 35", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Fatalf("self time without children %d, want 100", got)
	}
}

func TestSequenceEndsAtRoundBoundary(t *testing.T) {
	seq := newSequencer(1, make([]int, 5), func(int) string { return "" })
	for i := 0; i < 7; i++ {
		if _, ok := seq.next(false); !ok {
			t.Fatal("sequence ended before its deadline")
		}
	}
	// Past the deadline the second round's last three requests still come.
	for i := 0; i < 3; i++ {
		if _, ok := seq.next(true); !ok {
			t.Fatalf("sequence ended %d requests short of the round boundary", 3-i)
		}
	}
	if _, ok := seq.next(true); ok {
		t.Fatal("sequence went on past the deadline at a round boundary")
	}
}

func TestOracleCacheIsKeyedByBuild(t *testing.T) {
	data := func() [][]rdf.Triple {
		return [][]rdf.Triple{{{S: rdf.NewIRI("http://s"), P: rdf.NewIRI("http://p"), O: rdf.NewLiteral("o")}}}
	}
	dir := t.TempDir()
	files := func() int {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		return len(entries)
	}
	const text = "SELECT ?s WHERE { ?s <http://p> ?o }"
	for i, build := range []string{"", "", "other"} {
		o, err := newOracle(data, "tiny", dir)
		if err != nil {
			t.Fatal(err)
		}
		if build != "" {
			o.build = build
		}
		a, err := o.answer(text)
		if err != nil {
			t.Fatal(err)
		}
		if a.Digest.Rows != 1 {
			t.Fatalf("answer has %d rows, want 1", a.Digest.Rows)
		}
		// The same build reuses its entry; another build writes its own.
		if want := []int{1, 1, 2}[i]; files() != want {
			t.Fatalf("after oracle %d the cache holds %d entries, want %d", i, files(), want)
		}
	}
}

func TestDigestIsOrderInsensitiveMultiset(t *testing.T) {
	a, b := rdf.NewIRI("http://a"), rdf.NewLiteral("b")
	r1 := &sparql.Results{Vars: []string{"x", "y"}, Rows: [][]rdf.Term{{a, b}, {b, a}, {a, a}}}
	r2 := &sparql.Results{Vars: []string{"y", "x"}, Rows: [][]rdf.Term{{a, a}, {a, b}, {b, a}}}
	d1, _ := resultsDigest(r1)
	d2, _ := resultsDigest(r2)
	if d1 != d2 {
		t.Fatal("row and column order changed the digest")
	}
	r3 := &sparql.Results{Vars: []string{"x", "y"}, Rows: [][]rdf.Term{{a, b}, {a, b}, {a, a}}}
	if d3, _ := resultsDigest(r3); d3 == d1 {
		t.Fatal("a different multiset has the same digest")
	}
}

func TestLimitAnswerChecksMembership(t *testing.T) {
	a := &answer{Limit: 2, Digest: digest{Rows: 3}, Members: map[uint64]int{1: 1, 2: 2}}
	if err := a.check(digest{Rows: 2}, []uint64{2, 2}); err != nil {
		t.Fatal(err)
	}
	if err := a.check(digest{Rows: 2}, []uint64{1, 1}); err == nil {
		t.Fatal("a row used more often than the answer holds it passed")
	}
	if err := a.check(digest{Rows: 1}, []uint64{1}); err == nil {
		t.Fatal("a short LIMIT result passed")
	}
}

func TestTailHasTenSamplesBeyond(t *testing.T) {
	var xs []float64
	for i := 1; i <= 200; i++ {
		xs = append(xs, float64(i))
	}
	tl, ok := tailOf(xs)
	if !ok || tl.Beyond != 10 || tl.Value != 190 || tl.Percentile != 95 {
		t.Fatalf("tail %+v", tl)
	}
	if _, ok := tailOf(xs[:10]); ok {
		t.Fatal("a tail from 10 samples")
	}
}

// runFixed drives exactly n requests of the sequence through the system
// with the workload's clients, as runPhase does but by count, so a traced
// and an untraced run execute the same requests.
func runFixed(ctx context.Context, s *sut, seq *sequencer, clients, n int) (map[int64]outcome, client.Snapshot) {
	before := s.metrics.Snapshot()
	out := map[int64]outcome{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				mu.Lock()
				r, ok := seq.next(false)
				if ok && r.Seq > int64(n) {
					ok = false
				}
				mu.Unlock()
				if !ok {
					return
				}
				o := s.exec(ctx, c, r)
				mu.Lock()
				out[r.Seq] = o
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return out, s.metrics.Snapshot().Sub(before)
}

func TestTracedAndUntracedRunsAgree(t *testing.T) {
	ctx := context.Background()
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			type run struct {
				outs map[int64]outcome
				cost client.Snapshot
			}
			var runs []run
			for _, traced := range []bool{false, true} {
				e := smallEnv(t, traced)
				s, err := wl.setup(ctx, e)
				if err != nil {
					t.Fatal(err)
				}
				for i, q := range wl.shapes {
					if o := s.exec(ctx, 0, request{Shape: i, Text: q.Text}); o.err != nil {
						t.Fatal(o.err)
					}
				}
				text := func(shape int) string { return wl.shapes[shape].Text }
				if wl.texts != nil {
					text = wl.texts(s, 3, wl.shapes)
				}
				if traced {
					e.tr.on.Store(true)
				}
				outs, cost := runFixed(ctx, s, newSequencer(3, make([]int, len(wl.shapes)), text), wl.clients, 2*len(wl.shapes))
				s.close()
				if traced && len(e.tr.recorded()) == 0 {
					t.Fatal("traced run recorded no spans")
				}
				runs = append(runs, run{outs, cost})
			}
			u, tr := runs[0], runs[1]
			if len(u.outs) != len(tr.outs) {
				t.Fatalf("%d untraced vs %d traced outcomes", len(u.outs), len(tr.outs))
			}
			for seq, uo := range u.outs {
				to := tr.outs[seq]
				if uo.err != nil || to.err != nil {
					t.Fatalf("request %d failed: %v / %v", seq, uo.err, to.err)
				}
				if uo.digest != to.digest {
					t.Errorf("request %d (%s): digest %+v untraced, %+v traced", seq, wl.shapes[uo.req.Shape].Name, uo.digest, to.digest)
				}
				if uo.requests != to.requests {
					t.Errorf("request %d (%s): %d endpoint requests untraced, %d traced", seq, wl.shapes[uo.req.Shape].Name, uo.requests, to.requests)
				}
			}
			if u.cost.Requests != tr.cost.Requests {
				t.Errorf("endpoint requests: %d untraced, %d traced", u.cost.Requests, tr.cost.Requests)
			}
		})
	}
}

func TestRunIsCorrectAndReportsDeclaredMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload end to end")
	}
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			o := options{seed: 1, seconds: time.Second, trace: traced, workDir: t.TempDir(), small: true}
			rep, res, _, err := run(context.Background(), wl, o, time.Now())
			if err != nil {
				t.Fatalf("%s: %v", wl.name, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d errors=%v", wl.name, traced, res.Correct, res.Attempted, res.Failed, rep.Errors)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if got, names := sortedKeys(res.Metrics), defNames(want); !reflect.DeepEqual(got, names) {
				t.Errorf("%s trace=%v reports %v, want %v", wl.name, traced, got, names)
			}
		}
	}
}

func sortedKeys(m map[string]value) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func defNames(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		out = append(out, d.Name)
	}
	sort.Strings(out)
	return out
}

// TestBenchmarkJSONDeclaresTheMetrics keeps BENCHMARK.json and the code's
// metric lists in step.
func TestBenchmarkJSONDeclaresTheMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var cfg struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &cfg); err != nil {
		t.Fatal(err)
	}
	var wls []string
	for _, w := range cfg.Workloads {
		wls = append(wls, w.Name)
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json names unknown workload %s", w.Name)
		}
	}
	if len(wls) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %v, the benchmark has %d workloads", wls, len(workloads))
	}
	if !reflect.DeepEqual(cfg.EndToEnd, endToEnd) {
		t.Errorf("end_to_end %+v\nwant %+v", cfg.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(cfg.PerLayer, perLayer) {
		t.Errorf("per_layer %+v\nwant %+v", cfg.PerLayer, perLayer)
	}
}
