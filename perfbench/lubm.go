package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"lusail/internal/bench"
	"lusail/internal/client"
	"lusail/internal/core"
	"lusail/internal/diskstore"
	"lusail/internal/endpoint"
	"lusail/internal/federation"
	"lusail/internal/rdf"
	"lusail/internal/store"
)

// lubm100k is the lubm-100k tier of the diskscale experiment
// (BENCH_diskstore.json): 4 universities, 100,092 triples.
var lubm100k = bench.LUBMConfig{Universities: 4, DeptsPerUniv: 10, ProfsPerDept: 20, StudentsPerDept: 295, Seed: 1, RemoteDegreeRatio: 0.3}

// lubmSmall keeps the benchmark's own tests fast.
var lubmSmall = bench.LUBMConfig{Universities: 2, DeptsPerUniv: 2, ProfsPerDept: 4, StudentsPerDept: 20, Seed: 1, RemoteDegreeRatio: 0.3}

// diskCacheBytes is the per-store block cache of lubm-disk: the store's
// minimum, just under the decoded working set of Q1-Q3, so queries keep
// missing and re-decoding blocks.
const diskCacheBytes = 1 << 20

func lubmConfig(e *env) bench.LUBMConfig {
	if e.small {
		return lubmSmall
	}
	return lubm100k
}

func lubmHTTPWorkload() *workload {
	return &workload{
		name:    "lubm-http",
		clients: 1,
		shapes:  bench.LUBMQueries(),
		setup:   setupLUBMHTTP,
	}
}

func lubmDiskWorkload() *workload {
	return &workload{
		name:    "lubm-disk",
		clients: 1,
		shapes:  bench.LUBMQueries()[:3],
		setup:   setupLUBMDisk,
	}
}

// lubmData returns the generator's datasets as triple slices.
func lubmData(cfg bench.LUBMConfig) func() [][]rdf.Triple {
	return func() [][]rdf.Triple {
		var out [][]rdf.Triple
		for _, ds := range bench.GenerateLUBM(cfg) {
			out = append(out, ds.Triples)
		}
		return out
	}
}

// setupLUBMHTTP serves one in-memory store per university through
// endpoint.NewHandler on loopback HTTP and federates them.
func setupLUBMHTTP(_ context.Context, e *env) (*sut, error) {
	cfg := lubmConfig(e)
	m := &client.Metrics{}
	var eps []client.Endpoint
	var servers []*loopback
	closeAll := func() {
		for _, s := range servers {
			s.close()
		}
	}
	for _, ds := range bench.GenerateLUBM(cfg) {
		var g store.Graph = store.NewFromTriples(ds.Triples)
		if e.tr != nil {
			g = &tracedGraph{Graph: g, tr: e.tr}
		}
		var h http.Handler = endpoint.NewHandler(ds.Name, g)
		if e.tr != nil {
			h = traceHandler(h, e.tr, "endpoint.handler", "eval")
		}
		srv, err := serveLoopback(h)
		if err != nil {
			closeAll()
			return nil, err
		}
		servers = append(servers, srv)
		// The engine's pool issues at most GOMAXPROCS requests at once; two
		// connections per endpoint match the machine's two CPUs.
		tp := &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}
		srv.transports = append(srv.transports, tp)
		var rt http.RoundTripper = tp
		if e.tr != nil {
			rt = &traceTransport{inner: tp, tr: e.tr}
		}
		var ep client.Endpoint = client.NewInstrumented(client.NewHTTPWithClient(ds.Name, srv.url+"/sparql", &http.Client{Transport: rt}), m)
		if e.tr != nil {
			ep = traceEndpoint(ep, e.tr, httpEndpoint)
		}
		eps = append(eps, ep)
	}
	eng, err := newEngine(eps)
	if err != nil {
		closeAll()
		return nil, err
	}
	return &sut{
		exec:    engineExec(eng, m, e.tr),
		metrics: m,
		data:    lubmData(cfg),
		dataKey: fmt.Sprintf("lubm %+v", cfg),
		close:   closeAll,
	}, nil
}

// setupLUBMDisk bulk-loads one diskstore file per university straight from
// the generator and federates in-process endpoints over them.
func setupLUBMDisk(_ context.Context, e *env) (*sut, error) {
	cfg := lubmConfig(e)
	dir, err := os.MkdirTemp(e.workDir, "lubm-disk-*")
	if err != nil {
		return nil, err
	}
	var stores []*diskstore.Store
	closeAll := func() {
		for _, st := range stores {
			st.Close()
		}
		os.RemoveAll(dir)
	}
	loaders := map[string]*diskstore.Loader{}
	var names []string
	err = bench.EmitLUBM(cfg, func(ds string, t rdf.Triple) error {
		l, ok := loaders[ds]
		if !ok {
			var err error
			l, err = diskstore.NewLoader(filepath.Join(dir, ds+".lds"), diskstore.BuildOptions{TempDir: dir})
			if err != nil {
				return err
			}
			loaders[ds] = l
			names = append(names, ds)
		}
		return l.Add(t)
	})
	if err != nil {
		for _, l := range loaders {
			l.Abort()
		}
		closeAll()
		return nil, fmt.Errorf("lubm-disk: load: %w", err)
	}
	m := &client.Metrics{}
	var eps []client.Endpoint
	for i, name := range names {
		if _, err := loaders[name].Finish(); err != nil {
			for _, rest := range names[i+1:] {
				loaders[rest].Abort()
			}
			closeAll()
			return nil, fmt.Errorf("lubm-disk: load %s: %w", name, err)
		}
		st, err := diskstore.Open(filepath.Join(dir, name+".lds"), diskstore.Options{CacheBytes: diskCacheBytes})
		if err != nil {
			closeAll()
			return nil, err
		}
		stores = append(stores, st)
		var g store.Graph = st
		if e.tr != nil {
			g = &tracedGraph{Graph: g, tr: e.tr}
		}
		var ep client.Endpoint = client.NewInstrumented(client.NewInProcess(name, g), m)
		if e.tr != nil {
			ep = traceEndpoint(ep, e.tr, inProcessEndpoint)
		}
		eps = append(eps, ep)
	}
	eng, err := newEngine(eps)
	if err != nil {
		closeAll()
		return nil, err
	}
	return &sut{
		exec:    engineExec(eng, m, e.tr),
		metrics: m,
		disk:    stores,
		data:    lubmData(cfg),
		dataKey: fmt.Sprintf("lubm %+v", cfg),
		close: func() {
			for _, st := range stores {
				if err := st.Err(); err != nil {
					fmt.Fprintf(os.Stderr, "perfbench: diskstore %s: %v\n", st.Path(), err)
				}
			}
			closeAll()
		},
	}, nil
}

func newEngine(eps []client.Endpoint) (*core.Engine, error) {
	fed, err := federation.New(eps...)
	if err != nil {
		return nil, err
	}
	return core.New(fed, core.DefaultOptions())
}

// engineExec runs a request through the engine's public cursor API, as
// one closed-loop client. Untraced it calls Engine.Select; traced it calls
// the two halves Select is made of, PlanString and ExecutePlanStream, so
// planning and execution get their own spans. The client is alone, so the
// endpoint requests a query caused are the metrics' delta across it.
func engineExec(eng *core.Engine, m *client.Metrics, tr *tracer) func(context.Context, int, request) outcome {
	return func(ctx context.Context, _ int, r request) outcome {
		o := outcome{req: r}
		tr.measureFrontEnd(r.Text)
		before := m.Requests.Load()
		ctx, qs := tr.startQuery(ctx, r.Seq, "query")
		defer qs.end()
		start := time.Now()
		var rows *core.Rows
		var es *openSpan
		var err error
		if tr.enabled() {
			pctx, ps := tr.start(ctx, "core.plan")
			var plan *core.Plan
			plan, err = eng.PlanString(pctx, r.Text)
			ps.end()
			if err == nil {
				var ectx context.Context
				ectx, es = tr.start(ctx, "core.execute")
				rows, err = eng.ExecutePlanStream(ectx, plan)
			}
		} else {
			rows, err = eng.Select(ctx, r.Text)
		}
		if err != nil {
			es.end()
			o.err = err
			return o
		}
		vh := varHashes(rows.Vars())
		for rows.Next() {
			if o.digest.Rows == 0 {
				o.firstRow = time.Since(start)
			}
			h := rowHash(vh, rows.Row())
			o.digest.add(h)
			if len(o.rowHashes) < r.KeepRows {
				o.rowHashes = append(o.rowHashes, h)
			}
		}
		err = rows.Err()
		if cerr := rows.Close(); err == nil {
			err = cerr
		}
		o.latency = time.Since(start)
		es.end()
		if o.digest.Rows == 0 {
			o.firstRow = o.latency
		}
		o.delayed = rows.Profile().Delayed
		o.requests = m.Requests.Load() - before
		o.err = err
		return o
	}
}
