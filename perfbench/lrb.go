package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"regexp"
	"sort"
	"strings"
	"time"

	"lusail/internal/bench"
	"lusail/internal/client"
	"lusail/internal/rdf"
	"lusail/internal/server"
	"lusail/internal/sparql"
	"lusail/internal/store"
)

// lrbScale sizes the LargeRDFBench federation: 13 endpoints, 17,436
// triples at scale 4.
const lrbScale = 4

// lrbClients is the number of closed-loop clients, each on its own
// keep-alive connection.
const lrbClients = 2

func lrbConfig(e *env) bench.LRBConfig {
	cfg := bench.DefaultLRB()
	if !e.small {
		cfg.Scale = lrbScale
	}
	return cfg
}

func lrbServiceWorkload() *workload {
	return &workload{
		name:    "lrb-service",
		clients: lrbClients,
		shapes:  bench.LRBQueries(),
		setup:   setupLRBService,
		texts:   lrbTexts,
	}
}

// setupLRBService starts lusaild (server.New with its defaults, result
// cache off) over 13 in-process memory endpoints and connects the clients.
func setupLRBService(_ context.Context, e *env) (*sut, error) {
	cfg := lrbConfig(e)
	datasets := bench.GenerateLRB(cfg)
	m := &client.Metrics{}
	var eps []client.Endpoint
	for _, ds := range datasets {
		var g store.Graph = store.NewFromTriples(ds.Triples)
		if e.tr != nil {
			g = &tracedGraph{Graph: g, tr: e.tr}
		}
		var ep client.Endpoint = client.NewInstrumented(client.NewInProcess(ds.Name, g), m)
		if e.tr != nil {
			ep = traceEndpoint(ep, e.tr, inProcessEndpoint)
		}
		eps = append(eps, ep)
	}
	eng, err := newEngine(eps)
	if err != nil {
		return nil, err
	}
	// The corpus has 32 fixed shapes: a result cache would answer nearly
	// every request and hide the engine.
	srv, err := server.New(server.Config{
		Engine:             eng,
		DisableResultCache: true,
		Logf:               func(string, ...any) {},
	})
	if err != nil {
		return nil, err
	}
	var h http.Handler = srv.Handler()
	if e.tr != nil {
		h = traceHandler(h, e.tr, "server.handler", "")
	}
	lb, err := serveLoopback(h)
	if err != nil {
		return nil, err
	}
	hcs := make([]*http.Client, lrbClients)
	for i := range hcs {
		tp := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
		lb.transports = append(lb.transports, tp)
		var rt http.RoundTripper = tp
		if e.tr != nil {
			rt = &traceTransport{inner: tp, tr: e.tr}
		}
		hcs[i] = &http.Client{Transport: rt}
	}
	return &sut{
		exec:    serviceExec(lb.url+"/sparql", hcs, e.tr),
		metrics: m,
		data: func() [][]rdf.Triple {
			var out [][]rdf.Triple
			for _, ds := range bench.GenerateLRB(cfg) {
				out = append(out, ds.Triples)
			}
			return out
		},
		dataKey: fmt.Sprintf("lrb %+v", cfg),
		close:   lb.close,
	}, nil
}

// serviceExec sends a request to lusaild as a SPARQL protocol POST on
// client c's connection and decodes the streamed JSON response with the
// client's streaming decoder; the first decoded row is the time to first
// row.
func serviceExec(endpointURL string, hcs []*http.Client, tr *tracer) func(context.Context, int, request) outcome {
	return func(ctx context.Context, c int, r request) outcome {
		o := outcome{req: r, requests: -1}
		tr.measureFrontEnd(r.Text)
		ctx, qs := tr.startQuery(ctx, r.Seq, "query")
		defer qs.end()
		start := time.Now()
		o.err = func() error {
			form := url.Values{"query": {r.Text}}.Encode()
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, endpointURL, strings.NewReader(form))
			if err != nil {
				return err
			}
			req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
			req.Header.Set("Accept", "application/sparql-results+json")
			resp, err := hcs[c].Do(req)
			if err != nil {
				return err
			}
			body := &countingBody{rc: resp.Body}
			defer func() {
				// Drain so the keep-alive connection is reused.
				io.Copy(io.Discard, body)
				body.Close()
				o.respBytes = body.n
			}()
			if resp.StatusCode != http.StatusOK {
				msg, _ := io.ReadAll(io.LimitReader(body, 512))
				return fmt.Errorf("lusaild: HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(msg)))
			}
			dec, err := sparql.NewJSONDecoder(io.NopCloser(body))
			if err != nil {
				return err
			}
			defer dec.Close()
			vh := varHashes(dec.Vars())
			for {
				row, err := dec.Read()
				if errors.Is(err, io.EOF) {
					return nil
				}
				if err != nil {
					return err
				}
				if o.digest.Rows == 0 {
					o.firstRow = time.Since(start)
				}
				h := rowHash(vh, row)
				o.digest.add(h)
				if len(o.rowHashes) < r.KeepRows {
					o.rowHashes = append(o.rowHashes, h)
				}
			}
		}()
		o.latency = time.Since(start)
		if o.digest.Rows == 0 {
			o.firstRow = o.latency
		}
		return o
	}
}

// countingBody counts the response bytes the client reads.
type countingBody struct {
	rc io.ReadCloser
	n  int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.rc.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *countingBody) Close() error { return b.rc.Close() }

// constantRE finds literal constants like "drug-0003" or "GENE0009" in a
// query: a name, an optional dash, and a zero-padded number.
var constantRE = regexp.MustCompile(`"([A-Za-z]+-?)([0-9]+)"`)

// lrbTexts returns the request text generator of lrb-service: every
// literal constant of a shape is redrawn per request from the generator's
// domain for it — the plain literals in the data with the same name and
// number width. Each domain is walked in a seeded permutation, so a value
// recurs only after the whole domain has been drawn; requests with fresh
// constants miss the plan cache and run full planning. Constants without
// such a domain (a FILTER substring like "place-00") stay as written.
func lrbTexts(s *sut, seed int64, shapes []bench.Query) func(shape int) string {
	type slot struct {
		literal string // as written in the shape, quotes included
		domain  string
	}
	slots := make([][]slot, len(shapes))
	domains := map[string][]string{}
	for i, q := range shapes {
		for _, m := range constantRE.FindAllStringSubmatch(q.Text, -1) {
			key := fmt.Sprintf("^%s[0-9]{%d}$", regexp.QuoteMeta(m[1]), len(m[2]))
			slots[i] = append(slots[i], slot{literal: m[0], domain: key})
			domains[key] = nil
		}
	}
	var keys []string
	for k := range domains {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	res := make(map[string]*regexp.Regexp, len(keys))
	for _, k := range keys {
		res[k] = regexp.MustCompile(k)
	}
	seen := map[string]bool{}
	for _, ts := range s.data() {
		for _, t := range ts {
			o := t.O
			if o.Kind != rdf.Literal || o.Lang != "" || o.Datatype != "" || seen[o.Value] {
				continue
			}
			for _, k := range keys {
				if res[k].MatchString(o.Value) {
					seen[o.Value] = true
					domains[k] = append(domains[k], o.Value)
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	cursor := map[string]int{}
	for _, k := range keys {
		vals := domains[k]
		sort.Strings(vals)
		rng.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	}
	return func(shape int) string {
		text := shapes[shape].Text
		for _, sl := range slots[shape] {
			vals := domains[sl.domain]
			if len(vals) < 2 {
				continue
			}
			v := vals[cursor[sl.domain]%len(vals)]
			cursor[sl.domain]++
			text = strings.ReplaceAll(text, sl.literal, `"`+v+`"`)
		}
		return text
	}
}
