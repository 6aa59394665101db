package main

import (
	"context"
	"errors"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"lusail/internal/client"
	"lusail/internal/rdf"
	"lusail/internal/sparql"
	"lusail/internal/sparql/sema"
	"lusail/internal/store"
)

// layerCounters are the counts and busy times the decorators record at the
// layer boundaries while the tracer is on. All fields are atomic: the
// engine calls endpoints from several goroutines at once.
type layerCounters struct {
	// client: every endpoint request, as the engine issues it.
	requests atomic.Int64
	waitNs   atomic.Int64 // call until the response head (in-process: the whole result)
	readNs   atomic.Int64 // inside RowReader.Read
	rows     atomic.Int64

	// sparql: JSON decoding on HTTP endpoints only.
	httpRows   atomic.Int64
	httpReadNs atomic.Int64

	// eval: in-process requests evaluate the whole result before the call
	// returns, so their wait is evaluation time.
	inProcessWaitNs atomic.Int64

	// Planning requests, classified by the text the engine built (ASK
	// probes are counted by client.Metrics).
	countProbes atomic.Int64
	checks      atomic.Int64

	// store.Graph: Match calls, triples delivered, and time in the store
	// itself (callback time excluded).
	matchCalls  atomic.Int64
	triples     atomic.Int64
	storeSelfNs atomic.Int64

	// sparql and sema: the front end, timed on each request's text.
	frontEnds atomic.Int64
	parseNs   atomic.Int64
	vetNs     atomic.Int64
}

// measureFrontEnd times sparql.Parse and sema.Vet on a request's text, the
// first two layers every query crosses. lusaild and the engine run them
// internally, so the benchmark measures them on the same input beside the
// request, outside its latency.
func (t *tracer) measureFrontEnd(text string) {
	if !t.enabled() {
		return
	}
	start := time.Now()
	q, err := sparql.Parse(text)
	parsed := time.Now()
	if err != nil {
		return
	}
	sema.Vet(q, text)
	c := &t.c
	c.frontEnds.Add(1)
	c.parseNs.Add(int64(parsed.Sub(start)))
	c.vetNs.Add(int64(time.Since(parsed)))
}

// classify counts COUNT cardinality probes and LADE check queries (FILTER
// NOT EXISTS locality probes) among endpoint requests.
func (c *layerCounters) classify(query string) {
	switch {
	case strings.Contains(query, "NOT EXISTS"):
		c.checks.Add(1)
	case strings.Contains(query, "COUNT("):
		c.countProbes.Add(1)
	}
}

// endpointKind says what a decorated endpoint stands for.
type endpointKind int

const (
	httpEndpoint      endpointKind = iota // decodes responses off the wire
	inProcessEndpoint                     // evaluates in the engine's process
)

// tracedEndpoint wraps the engine's view of an endpoint (the
// client.Instrumented around it): each request becomes a "client.request"
// span and feeds the client counters. It implements client.Streamer only
// through tracedStreamer, so a decorated endpoint streams exactly when its
// inner endpoint does: a decorator that dropped QueryStream would make the
// engine materialize every response, and tracing would change what it
// measures.
type tracedEndpoint struct {
	inner client.Endpoint
	tr    *tracer
	kind  endpointKind
}

type tracedStreamer struct {
	*tracedEndpoint
	stream client.Streamer
}

func traceEndpoint(ep client.Endpoint, tr *tracer, kind endpointKind) client.Endpoint {
	base := &tracedEndpoint{inner: ep, tr: tr, kind: kind}
	if s, ok := ep.(client.Streamer); ok {
		return &tracedStreamer{tracedEndpoint: base, stream: s}
	}
	return base
}

func (e *tracedEndpoint) Name() string { return e.inner.Name() }

// begin records the request and opens its span.
func (e *tracedEndpoint) begin(ctx context.Context, query string) (context.Context, *openSpan) {
	c := &e.tr.c
	c.requests.Add(1)
	c.classify(query)
	return e.tr.start(ctx, "client.request")
}

// waited records the time until the call returned.
func (e *tracedEndpoint) waited(d time.Duration) {
	e.tr.c.waitNs.Add(int64(d))
	if e.kind == inProcessEndpoint {
		e.tr.c.inProcessWaitNs.Add(int64(d))
	}
}

func (e *tracedEndpoint) Query(ctx context.Context, query string) (*sparql.Results, error) {
	if !e.tr.enabled() {
		return e.inner.Query(ctx, query)
	}
	ctx, sp := e.begin(ctx, query)
	start := time.Now()
	res, err := e.inner.Query(ctx, query)
	e.waited(time.Since(start))
	sp.end()
	if err == nil {
		e.tr.c.rows.Add(int64(len(res.Rows)))
	}
	return res, err
}

func (e *tracedStreamer) QueryStream(ctx context.Context, query string) (sparql.RowReader, error) {
	if !e.tr.enabled() {
		return e.stream.QueryStream(ctx, query)
	}
	ctx, sp := e.begin(ctx, query)
	start := time.Now()
	rd, err := e.stream.QueryStream(ctx, query)
	e.waited(time.Since(start))
	if err != nil {
		sp.end()
		return nil, err
	}
	return &tracedReader{inner: rd, ep: e.tracedEndpoint, sp: sp}, nil
}

// tracedReader times Read calls and ends the request span on Close.
type tracedReader struct {
	inner  sparql.RowReader
	ep     *tracedEndpoint
	sp     *openSpan
	readNs int64
	rows   int64
	closed bool
}

func (r *tracedReader) Vars() []string { return r.inner.Vars() }

// Boolean forwards the ASK answer, so callers that probe for
// sparql.BooleanReader see the inner reader's result.
func (r *tracedReader) Boolean() (bool, bool) {
	if br, ok := r.inner.(sparql.BooleanReader); ok {
		return br.Boolean()
	}
	return false, false
}

func (r *tracedReader) Read() ([]rdf.Term, error) {
	start := time.Now()
	row, err := r.inner.Read()
	r.readNs += int64(time.Since(start))
	if err == nil {
		r.rows++
	} else if !errors.Is(err, io.EOF) {
		r.settle()
	}
	return row, err
}

func (r *tracedReader) settle() {
	if r.closed {
		return
	}
	r.closed = true
	c := &r.ep.tr.c
	c.readNs.Add(r.readNs)
	c.rows.Add(r.rows)
	if r.ep.kind == httpEndpoint {
		c.httpReadNs.Add(r.readNs)
		c.httpRows.Add(r.rows)
	}
	r.sp.end()
}

func (r *tracedReader) Close() error {
	err := r.inner.Close()
	r.settle()
	return err
}

// tracedGraph wraps a store.Graph backend and counts Match calls, the
// triples they deliver, and the time spent in the store itself: Match time
// minus the time its callback (the evaluator's join above it) runs.
type tracedGraph struct {
	store.Graph
	tr *tracer
}

func (g *tracedGraph) Match(sub, pred, obj *rdf.Term, fn func(rdf.Triple) bool) {
	if !g.tr.enabled() {
		g.Graph.Match(sub, pred, obj, fn)
		return
	}
	var n int64
	var inCallback time.Duration
	start := time.Now()
	g.Graph.Match(sub, pred, obj, func(t rdf.Triple) bool {
		n++
		t0 := time.Now()
		ok := fn(t)
		inCallback += time.Since(t0)
		return ok
	})
	self := time.Since(start) - inCallback
	c := &g.tr.c
	c.matchCalls.Add(1)
	c.triples.Add(n)
	c.storeSelfNs.Add(int64(self))
}

func (g *tracedGraph) Count(sub, pred, obj *rdf.Term) int {
	if !g.tr.enabled() {
		return g.Graph.Count(sub, pred, obj)
	}
	start := time.Now()
	n := g.Graph.Count(sub, pred, obj)
	g.tr.c.storeSelfNs.Add(int64(time.Since(start)))
	return n
}

func (g *tracedGraph) Contains(sub, pred, obj *rdf.Term) bool {
	if !g.tr.enabled() {
		return g.Graph.Contains(sub, pred, obj)
	}
	start := time.Now()
	ok := g.Graph.Contains(sub, pred, obj)
	g.tr.c.storeSelfNs.Add(int64(time.Since(start)))
	return ok
}

// traceHandler wraps an HTTP handler (an endpoint.Handler or lusaild's
// mux): each request that carries a traceHeader becomes a span under the
// client span that sent it, and the handler runs with that span in its
// context, so spans of requests it causes downstream link back to it.
// With a firstWrite name it also records a child span from the request's
// start to the handler's first write: an endpoint.Handler parses and
// evaluates the whole query before it writes a byte, so that span is its
// evaluation.
func traceHandler(h http.Handler, tr *tracer, spanName, firstWrite string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ref, ok := parseSpanRef(r.Header.Get(traceHeader))
		if !ok || !tr.enabled() {
			h.ServeHTTP(w, r)
			return
		}
		ctx, sp := tr.open(r.Context(), ref, spanName)
		if firstWrite == "" {
			h.ServeHTTP(w, r.WithContext(ctx))
			sp.end()
			return
		}
		fw := &firstWriteRecorder{ResponseWriter: w, tr: tr}
		h.ServeHTTP(fw, r.WithContext(ctx))
		sp.end()
		if fw.at != 0 {
			tr.record(span{ID: tr.ids.Add(1), Parent: sp.s.ID, Query: ref.query, Name: firstWrite, Start: sp.s.Start, End: fw.at})
		}
	})
}

// firstWriteRecorder notes when a handler first writes its response.
type firstWriteRecorder struct {
	http.ResponseWriter
	tr *tracer
	at int64
}

func (w *firstWriteRecorder) WriteHeader(code int) {
	if w.at == 0 {
		w.at = w.tr.now()
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *firstWriteRecorder) Write(b []byte) (int, error) {
	if w.at == 0 {
		w.at = w.tr.now()
	}
	return w.ResponseWriter.Write(b)
}

// traceTransport copies the innermost span of the request's context into
// the traceHeader.
type traceTransport struct {
	inner http.RoundTripper
	tr    *tracer
}

func (t *traceTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if ref, ok := spanFrom(req.Context()); ok && t.tr.enabled() {
		req = req.Clone(req.Context())
		req.Header.Set(traceHeader, ref.header())
	}
	return t.inner.RoundTrip(req)
}
