package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own code
// around the call. Spans of one query share Query; Parent links a span to
// the span that caused it (0 for a query's root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Query  int64  `json:"query"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends, and holds the counters
// the decorators record at the same layer boundaries. Everything is a
// no-op while the tracer is off, so one setup serves the untraced and the
// traced phase of a traced run.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
	ids   atomic.Int64

	mu    sync.Mutex
	spans []span

	c layerCounters
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// enabled reports whether spans and counters are being recorded; a nil
// tracer (untraced run) never records.
func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// spanRef identifies the innermost open span of a query. It travels in the
// context, and across HTTP in the traceHeader.
type spanRef struct{ query, id int64 }

type spanKey struct{}

func withSpan(ctx context.Context, ref spanRef) context.Context {
	return context.WithValue(ctx, spanKey{}, ref)
}

func spanFrom(ctx context.Context) (spanRef, bool) {
	ref, ok := ctx.Value(spanKey{}).(spanRef)
	return ref, ok
}

// traceHeader carries "<query>/<span>" from a client request to the
// handler wrapper on the other side of the connection.
const traceHeader = "X-Perfbench-Span"

func (r spanRef) header() string { return fmt.Sprintf("%d/%d", r.query, r.id) }

func parseSpanRef(h string) (spanRef, bool) {
	q, s, ok := strings.Cut(h, "/")
	if !ok {
		return spanRef{}, false
	}
	qi, err1 := strconv.ParseInt(q, 10, 64)
	si, err2 := strconv.ParseInt(s, 10, 64)
	if err1 != nil || err2 != nil {
		return spanRef{}, false
	}
	return spanRef{query: qi, id: si}, true
}

// openSpan is a started span; end records it. A nil *openSpan (tracing
// off) ends as a no-op.
type openSpan struct {
	t *tracer
	s span
}

// startQuery opens the root span of query qid.
func (t *tracer) startQuery(ctx context.Context, qid int64, name string) (context.Context, *openSpan) {
	if !t.enabled() {
		return ctx, nil
	}
	return t.open(ctx, spanRef{query: qid}, name)
}

// start opens a span under the innermost span in ctx. Without one (a call
// no traced query caused) nothing is recorded.
func (t *tracer) start(ctx context.Context, name string) (context.Context, *openSpan) {
	if !t.enabled() {
		return ctx, nil
	}
	parent, ok := spanFrom(ctx)
	if !ok {
		return ctx, nil
	}
	return t.open(ctx, parent, name)
}

func (t *tracer) open(ctx context.Context, parent spanRef, name string) (context.Context, *openSpan) {
	sp := &openSpan{t: t, s: span{
		ID:     t.ids.Add(1),
		Parent: parent.id,
		Query:  parent.query,
		Name:   name,
		Start:  t.now(),
	}}
	return withSpan(ctx, spanRef{query: parent.query, id: sp.s.ID}), sp
}

func (o *openSpan) end() {
	if o == nil {
		return
	}
	o.s.End = o.t.now()
	o.t.record(o.s)
}

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// recorded returns a copy of the spans recorded so far.
func (t *tracer) recorded() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeSpans writes the recorded spans as JSON lines.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.recorded() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTime is a span's duration minus the part of its interval that its
// children cover. Children may overlap each other (parallel endpoint
// requests) and may outlive the parent; only the covered part of the
// parent's own interval is subtracted, and each instant at most once.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered int64
	var curLo, curHi int64
	for i, v := range ivs {
		switch {
		case i == 0:
			curLo, curHi = v.lo, v.hi
		case v.lo > curHi:
			covered += curHi - curLo
			curLo, curHi = v.lo, v.hi
		case v.hi > curHi:
			curHi = v.hi
		}
	}
	if len(ivs) > 0 {
		covered += curHi - curLo
	}
	return parent.dur() - time.Duration(covered)
}

// spanIndex groups spans for the per-layer summary.
type spanIndex struct {
	byName   map[string][]span
	children map[int64][]span
}

func indexSpans(spans []span) spanIndex {
	ix := spanIndex{byName: map[string][]span{}, children: map[int64][]span{}}
	for _, s := range spans {
		ix.byName[s.Name] = append(ix.byName[s.Name], s)
		if s.Parent != 0 {
			ix.children[s.Parent] = append(ix.children[s.Parent], s)
		}
	}
	return ix
}

// total sums the durations of every span with the given name.
func (ix spanIndex) total(name string) time.Duration {
	var d time.Duration
	for _, s := range ix.byName[name] {
		d += s.dur()
	}
	return d
}

// selfTotal sums the self time of every span with the given name.
func (ix spanIndex) selfTotal(name string) time.Duration {
	var d time.Duration
	for _, s := range ix.byName[name] {
		d += selfTime(s, ix.children[s.ID])
	}
	return d
}

// countPerQuery counts the spans with the given name per query id.
func (ix spanIndex) countPerQuery(name string) map[int64]int {
	out := map[int64]int{}
	for _, s := range ix.byName[name] {
		out[s.Query]++
	}
	return out
}
