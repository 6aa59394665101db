package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// metricDef names a metric with its unit and direction; the lists below
// are the ones BENCHMARK.json declares.
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd are the metrics a user of the system sees, measured with
// tracing off.
var endToEnd = []metricDef{
	{"query_ms_geomean", "ms", "lower"},
	{"first_row_ms_geomean", "ms", "lower"},
	{"queries_per_s", "1/s", "higher"},
	{"endpoint_requests_per_query", "count", "lower"},
	{"endpoint_bytes_per_query", "B", "lower"},
	{"peak_live_heap_mib", "MiB", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayer are the metrics of the traced phase, one group per layer a
// query crosses, plus the tracing overhead.
var perLayer = []metricDef{
	{"sparql.decode_rows_per_s", "rows/s", "higher"},
	{"sparql.parse_us_per_query", "us", "lower"},
	{"sema.vet_us_per_query", "us", "lower"},
	{"federation.asks_per_query", "count", "lower"},
	{"core.plan_ms_per_query", "ms", "lower"},
	{"core.count_probes_per_query", "count", "lower"},
	{"core.check_queries_per_query", "count", "lower"},
	{"core.exec_self_ms_per_query", "ms", "lower"},
	{"core.bound_join_subqueries_per_query", "count", "lower"},
	{"core.fetched_rows_per_result_row", "ratio", "lower"},
	{"erh.wait_ms_per_query", "ms", "lower"},
	{"client.wait_ms_per_query", "ms", "lower"},
	{"client.read_ms_per_query", "ms", "lower"},
	{"client.rows_per_query", "count", "lower"},
	{"endpoint.handler_ms_per_query", "ms", "lower"},
	{"eval.ms_per_query", "ms", "lower"},
	{"store.match_calls_per_query", "count", "lower"},
	{"store.triples_per_query", "count", "lower"},
	{"store.self_ms_per_query", "ms", "lower"},
	{"diskstore.block_lookups_per_query", "count", "lower"},
	{"diskstore.block_hit_ratio", "ratio", "higher"},
	{"server.handler_ms_per_query", "ms", "lower"},
	{"server.plan_cache_hit_ratio", "ratio", "higher"},
	{"server.admission_waits_per_query", "count", "lower"},
	{"server.response_bytes_per_query", "B", "lower"},
	{"goruntime.alloc_mib_per_query", "MiB", "lower"},
	{"goruntime.gc_cpu_fraction", "ratio", "lower"},
	{"trace.query_ms_overhead_ratio", "ratio", "lower"},
	{"trace.queries_per_s_overhead_ratio", "ratio", "higher"},
	{"trace.endpoint_requests_ratio", "ratio", "lower"},
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.Name == name {
			return d.Unit
		}
	}
	panic("perfbench: undeclared metric " + name)
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// shapeSummary is one query shape's row in a phase.
type shapeSummary struct {
	Name             string  `json:"name"`
	Samples          int     `json:"samples"`
	MedianMs         float64 `json:"median_ms"`
	FirstRowMedianMs float64 `json:"first_row_median_ms"`
	RowsMin          int64   `json:"rows_min"`
	RowsMax          int64   `json:"rows_max"`
	// EndpointRequests is the per-query endpoint request count, as
	// [min, median, max]; absent when the phase cannot attribute requests
	// to queries (concurrent clients without tracing).
	EndpointRequests []float64 `json:"endpoint_requests,omitempty"`
	// LatenciesMs are the shape's latencies, sorted, for noise analysis.
	LatenciesMs []float64 `json:"latencies_ms"`
}

// phaseSummary is everything one timed phase measured.
type phaseSummary struct {
	Name         string  `json:"name"`
	Traced       bool    `json:"traced"`
	WallS        float64 `json:"wall_s"`
	Attempted    int     `json:"attempted"`
	Failed       int     `json:"failed"`
	Wrong        int     `json:"wrong"`
	FailedRatio  float64 `json:"failed_ratio"`
	LatencyP50Ms float64 `json:"latency_p50_ms"`
	LatencyTail  *tail   `json:"latency_tail_ms,omitempty"`
	// SettleS is the time spent settling the heap between requests,
	// excluded from the timed wall time queries_per_s divides by.
	SettleS    float64           `json:"settle_s"`
	Shapes     []shapeSummary    `json:"shapes"`
	Metrics    map[string]value  `json:"metrics"`
	Layers     map[string]value  `json:"layers,omitempty"`
	LayerNotes map[string]string `json:"layer_notes,omitempty"`
}

// report is the full record of one run, written beside the result line.
type report struct {
	Workload     string           `json:"workload"`
	Seed         int64            `json:"seed"`
	Seconds      int              `json:"seconds"`
	Trace        bool             `json:"trace"`
	Commit       string           `json:"commit"`
	GoVersion    string           `json:"go_version"`
	GOMAXPROCS   int              `json:"gomaxprocs"`
	NumCPU       int              `json:"nproc"`
	Clients      int              `json:"clients"`
	SetupS       []float64        `json:"setup_s"`
	Phases       []phaseSummary   `json:"phases"`
	Correct      bool             `json:"correct"`
	Errors       []string         `json:"errors,omitempty"`
	ResultMetric map[string]value `json:"result_metrics"`
}

// summarizePhase computes a phase's per-shape table and end-to-end
// metrics (all but setup_s, which belongs to the run).
func summarizePhase(wl *workload, p *phase) phaseSummary {
	ps := phaseSummary{Name: p.name, Traced: p.traced, WallS: p.wall.Seconds(), SettleS: p.settle.Seconds(), Attempted: len(p.outcomes)}
	var lat []float64
	var okCount int
	var resultRows int64
	perShapeReqs := p.requestsByQuery()
	byShape := make([][]outcome, len(wl.shapes))
	for _, o := range p.outcomes {
		switch {
		case o.err != nil:
			ps.Failed++
			continue
		case o.wrong != nil:
			ps.Wrong++
			continue
		}
		okCount++
		resultRows += o.digest.Rows
		lat = append(lat, ms(o.latency))
		byShape[o.req.Shape] = append(byShape[o.req.Shape], o)
	}
	if ps.Attempted > 0 {
		ps.FailedRatio = float64(ps.Failed+ps.Wrong) / float64(ps.Attempted)
	}
	var medians, firstRows []float64
	for i, group := range byShape {
		if len(group) == 0 {
			continue
		}
		s := shapeSummary{Name: wl.shapes[i].Name, Samples: len(group), RowsMin: group[0].digest.Rows, RowsMax: group[0].digest.Rows}
		var l, f, reqs []float64
		for _, o := range group {
			l = append(l, ms(o.latency))
			f = append(f, ms(o.firstRow))
			s.RowsMin = min(s.RowsMin, o.digest.Rows)
			s.RowsMax = max(s.RowsMax, o.digest.Rows)
			if n, ok := perShapeReqs(o); ok {
				reqs = append(reqs, float64(n))
			}
		}
		s.MedianMs, s.FirstRowMedianMs = median(l), median(f)
		sort.Float64s(l)
		s.LatenciesMs = l
		if len(reqs) == len(group) {
			sort.Float64s(reqs)
			s.EndpointRequests = []float64{reqs[0], median(reqs), reqs[len(reqs)-1]}
		}
		ps.Shapes = append(ps.Shapes, s)
		medians = append(medians, s.MedianMs)
		firstRows = append(firstRows, s.FirstRowMedianMs)
	}
	ps.LatencyP50Ms = median(lat)
	// Below p90 the "tail" would be the body of the distribution: too few
	// samples for a tail.
	if t, ok := tailOf(lat); ok && t.Percentile >= 90 {
		ps.LatencyTail = &t
	}
	d := p.after.endpoint.Sub(p.before.endpoint)
	perQuery := func(x float64) float64 {
		if okCount == 0 {
			return 0
		}
		return x / float64(okCount)
	}
	ps.Metrics = map[string]value{}
	set := func(name string, v float64) { ps.Metrics[name] = value{v, unitOf(endToEnd, name)} }
	set("query_ms_geomean", geomean(medians))
	set("first_row_ms_geomean", geomean(firstRows))
	set("queries_per_s", float64(okCount)/(p.wall-p.settle).Seconds())
	set("endpoint_requests_per_query", perQuery(float64(d.Requests)))
	set("endpoint_bytes_per_query", perQuery(float64(d.Bytes)))
	set("peak_live_heap_mib", float64(p.peakLive)/(1<<20))
	if p.traced {
		ps.Layers, ps.LayerNotes = layerMetrics(p, okCount, resultRows)
	}
	return ps
}

// requestsByQuery returns how to attribute endpoint requests to one
// outcome: the client's own count when it had the federation to itself,
// else the traced phase's endpoint spans of that query.
func (p *phase) requestsByQuery() func(outcome) (int64, bool) {
	var perQuery map[int64]int
	if p.traced {
		ix := indexSpans(p.spans)
		perQuery = ix.countPerQuery("client.request")
	}
	return func(o outcome) (int64, bool) {
		if o.requests >= 0 {
			return o.requests, true
		}
		if perQuery != nil {
			return int64(perQuery[o.req.Seq]), true
		}
		return 0, false
	}
}

// layerMetrics computes the per-layer metrics of a traced phase. A layer a
// workload does not cross reads 0, with an n/a note saying why; a metric
// measured differently on some workload carries a note saying how.
func layerMetrics(p *phase, queries int, resultRows int64) (map[string]value, map[string]string) {
	out := map[string]value{}
	notes := map[string]string{}
	set := func(name string, v float64) { out[name] = value{v, unitOf(perLayer, name)} }
	na := func(name, why string) {
		set(name, 0)
		notes[name] = "n/a: " + why
	}
	n := float64(max(queries, 1))
	c := p.layers
	ix := indexSpans(p.spans)
	msPerQuery := func(d time.Duration) float64 { return ms(d) / n }
	nsPerQuery := func(ns int64) float64 { return float64(ns) / 1e6 / n }
	d := p.after.endpoint.Sub(p.before.endpoint)
	hasHTTP := len(ix.byName["endpoint.handler"]) > 0
	hasServer := len(ix.byName["server.handler"]) > 0

	if c.httpReadNs.Load() > 0 {
		set("sparql.decode_rows_per_s", float64(c.httpRows.Load())/(float64(c.httpReadNs.Load())/1e9))
	} else {
		na("sparql.decode_rows_per_s", "no HTTP endpoints: results are not decoded off the wire")
	}
	if fe := c.frontEnds.Load(); fe > 0 {
		set("sparql.parse_us_per_query", float64(c.parseNs.Load())/1e3/float64(fe))
		set("sema.vet_us_per_query", float64(c.vetNs.Load())/1e3/float64(fe))
	}
	set("federation.asks_per_query", float64(d.Asks)/n)
	if hasServer {
		set("core.plan_ms_per_query", (p.after.planSecs-p.before.planSecs)*1e3/n)
	} else {
		set("core.plan_ms_per_query", msPerQuery(ix.total("core.plan")))
	}
	set("core.count_probes_per_query", float64(c.countProbes.Load())/n)
	set("core.check_queries_per_query", float64(c.checks.Load())/n)
	if hasServer {
		// Inside lusaild the execution span cannot be separated from the
		// handler's own parse, sema, plan-cache lookup and JSON encoding.
		set("core.exec_self_ms_per_query", msPerQuery(ix.selfTotal("server.handler")))
		notes["core.exec_self_ms_per_query"] = "lusaild handler self time: includes its parse, sema, plan-cache lookup and JSON encoding"
		na("core.bound_join_subqueries_per_query", "Profile.Delayed is not exposed by lusaild")
	} else {
		set("core.exec_self_ms_per_query", msPerQuery(ix.selfTotal("core.execute")))
		var delayed int
		for _, o := range p.outcomes {
			delayed += o.delayed
		}
		set("core.bound_join_subqueries_per_query", float64(delayed)/n)
	}
	if resultRows > 0 {
		set("core.fetched_rows_per_result_row", float64(d.Rows)/float64(resultRows))
	}
	set("erh.wait_ms_per_query", (p.after.erhWait-p.before.erhWait)*1e3/n)
	set("client.wait_ms_per_query", nsPerQuery(c.waitNs.Load()))
	set("client.read_ms_per_query", nsPerQuery(c.readNs.Load()))
	set("client.rows_per_query", float64(c.rows.Load())/n)
	if hasHTTP {
		set("endpoint.handler_ms_per_query", msPerQuery(ix.total("endpoint.handler")))
		set("eval.ms_per_query", msPerQuery(ix.total("eval")))
		notes["eval.ms_per_query"] = "endpoint.Handler from request to first response byte: parse plus evaluation"
	} else {
		// An in-process endpoint is its evaluator: the request returns once
		// the whole result is evaluated, so both layers read its wait.
		set("endpoint.handler_ms_per_query", nsPerQuery(c.inProcessWaitNs.Load()))
		notes["endpoint.handler_ms_per_query"] = "no endpoint.Handler: the in-process request's wait, the same as eval.ms_per_query"
		set("eval.ms_per_query", nsPerQuery(c.inProcessWaitNs.Load()))
	}
	set("store.match_calls_per_query", float64(c.matchCalls.Load())/n)
	set("store.triples_per_query", float64(c.triples.Load())/n)
	set("store.self_ms_per_query", nsPerQuery(c.storeSelfNs.Load()))
	if lookups := (p.after.blockHits + p.after.blockMisses) - (p.before.blockHits + p.before.blockMisses); lookups > 0 {
		set("diskstore.block_lookups_per_query", float64(lookups)/n)
		set("diskstore.block_hit_ratio", float64(p.after.blockHits-p.before.blockHits)/float64(lookups))
	} else {
		na("diskstore.block_lookups_per_query", "no disk-backed stores")
		na("diskstore.block_hit_ratio", "no disk-backed stores")
	}
	if hasServer {
		set("server.handler_ms_per_query", msPerQuery(ix.total("server.handler")))
		set("server.admission_waits_per_query", float64(p.after.admitWaits-p.before.admitWaits)/n)
		hits := float64(p.after.planHits - p.before.planHits)
		misses := float64(p.after.planMisses - p.before.planMisses)
		if hits+misses > 0 {
			set("server.plan_cache_hit_ratio", hits/(hits+misses))
		}
		var bytes int64
		for _, o := range p.outcomes {
			bytes += o.respBytes
		}
		set("server.response_bytes_per_query", float64(bytes)/n)
	} else {
		// The client calls the engine directly: the engine call is what
		// serves its request.
		set("server.handler_ms_per_query", msPerQuery(ix.total("query")))
		notes["server.handler_ms_per_query"] = "no lusaild: the engine call (Select to Close) serves the request"
		for _, name := range []string{"server.plan_cache_hit_ratio", "server.admission_waits_per_query", "server.response_bytes_per_query"} {
			na(name, "no lusaild in this workload")
		}
	}
	set("goruntime.alloc_mib_per_query", float64(p.after.allocBytes-p.before.allocBytes)/(1<<20)/n)
	// The settling GCs between requests are the harness's, not the
	// program's: their CPU is left out of both sides of the share.
	if cpu := p.after.cpu.sub(p.before.cpu).sub(p.settleCPU); cpu.total > 0 {
		set("goruntime.gc_cpu_fraction", cpu.gc/cpu.total)
	}
	for _, def := range perLayer {
		if _, ok := out[def.Name]; !ok && !strings.HasPrefix(def.Name, "trace.") {
			na(def.Name, "nothing to measure in this phase")
		}
	}
	return out, notes
}

// traceOverhead compares the traced phase with the untraced one of the
// same run: ratios of traced to untraced end-to-end metrics.
func traceOverhead(untraced, traced phaseSummary) map[string]value {
	ratio := func(name string) float64 {
		u := untraced.Metrics[name].Value
		if u == 0 {
			return 0
		}
		return traced.Metrics[name].Value / u
	}
	return map[string]value{
		"trace.query_ms_overhead_ratio":      {ratio("query_ms_geomean"), "ratio"},
		"trace.queries_per_s_overhead_ratio": {ratio("queries_per_s"), "ratio"},
		"trace.endpoint_requests_ratio":      {ratio("endpoint_requests_per_query"), "ratio"},
	}
}

// printReport writes the human-readable report.
func printReport(w io.Writer, r *report) {
	fmt.Fprintf(w, "perfbench %s  seed=%d seconds=%d trace=%v commit=%s %s GOMAXPROCS=%d nproc=%d clients=%d\n",
		r.Workload, r.Seed, r.Seconds, r.Trace, r.Commit, r.GoVersion, r.GOMAXPROCS, r.NumCPU, r.Clients)
	fmt.Fprintf(w, "  setup_s per set-up: %s\n", floats(r.SetupS, "%.3f"))
	for _, ps := range r.Phases {
		fmt.Fprintf(w, "  phase %s: %.2fs wall (%.2fs settling the heap), %d attempted, %d failed, %d wrong\n", ps.Name, ps.WallS, ps.SettleS, ps.Attempted, ps.Failed, ps.Wrong)
		fmt.Fprintf(w, "    %-6s %7s %11s %13s %15s %s\n", "shape", "samples", "median_ms", "first_row_ms", "rows", "endpoint_requests[min median max]")
		for _, s := range ps.Shapes {
			rows := fmt.Sprint(s.RowsMin)
			if s.RowsMax != s.RowsMin {
				rows = fmt.Sprintf("%d-%d", s.RowsMin, s.RowsMax)
			}
			reqs := "-"
			if s.EndpointRequests != nil {
				reqs = floats(s.EndpointRequests, "%g")
			}
			fmt.Fprintf(w, "    %-6s %7d %11.3f %13.3f %15s %s\n", s.Name, s.Samples, s.MedianMs, s.FirstRowMedianMs, rows, reqs)
		}
		for _, def := range endToEnd {
			if v, ok := ps.Metrics[def.Name]; ok {
				fmt.Fprintf(w, "    %-36s %14.4f %s\n", def.Name, v.Value, v.Unit)
			}
		}
		fmt.Fprintf(w, "    %-36s %14.4f ms\n", "latency_p50_ms", ps.LatencyP50Ms)
		if t := ps.LatencyTail; t != nil {
			fmt.Fprintf(w, "    %-36s %14.4f ms (p%g of %d samples, %d beyond)\n", "latency_tail_ms", t.Value, t.Percentile, t.Samples, t.Beyond)
		} else {
			fmt.Fprintf(w, "    %-36s %14s (fewer than 100 samples)\n", "latency_tail_ms", "-")
		}
		fmt.Fprintf(w, "    %-36s %14.4f ratio\n", "failed_ratio", ps.FailedRatio)
		for _, def := range perLayer {
			if v, ok := ps.Layers[def.Name]; ok {
				note := ""
				if n := ps.LayerNotes[def.Name]; n != "" {
					note = "  (" + n + ")"
				}
				fmt.Fprintf(w, "    %-36s %14.4f %s%s\n", def.Name, v.Value, v.Unit, note)
			}
		}
	}
	for _, e := range r.Errors {
		fmt.Fprintf(w, "  error: %s\n", e)
	}
}

func floats(xs []float64, format string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf(format, x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
