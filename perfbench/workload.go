package main

import (
	"context"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"lusail/internal/bench"
	"lusail/internal/client"
	"lusail/internal/diskstore"
	"lusail/internal/obs"
	"lusail/internal/rdf"
)

// request is one query of a workload's seeded request sequence.
type request struct {
	Seq   int64 // position in the sequence; doubles as the trace query id
	Shape int   // index into the workload's shapes
	Text  string
	// KeepRows asks the client to keep the hashes of up to this many rows
	// (the query's LIMIT): a LIMIT query without ORDER BY is checked by
	// membership, not by digest. 0 keeps none.
	KeepRows int
}

// outcome is what the client observed for one request.
type outcome struct {
	req       request
	latency   time.Duration
	firstRow  time.Duration // time to the first row; the latency when there is none
	digest    digest
	rowHashes []uint64 // kept for LIMIT queries, checked by membership
	requests  int64    // endpoint requests, when the client can attribute them (-1 otherwise)
	respBytes int64    // response body bytes read by an HTTP client
	delayed   int      // bound-join subqueries (Profile.Delayed), traced engine runs
	err       error
	wrong     error // set by verification against the oracle
}

// sut is one set-up instance of a workload: the system under test plus
// the hooks the harness measures it through.
type sut struct {
	// exec runs one request from client number c and reports what the
	// client saw. It must be safe for the workload's number of clients.
	exec func(ctx context.Context, c int, r request) outcome
	// metrics counts endpoint requests and bytes (the paper's cost units)
	// for every endpoint of the federation.
	metrics *client.Metrics
	// disk holds the disk-backed stores, whose block caches are measured.
	disk []*diskstore.Store
	// data regenerates the federation's data, for the oracle and the
	// constant domains; dataKey identifies it in the oracle cache.
	data    func() [][]rdf.Triple
	dataKey string
	close   func()
}

// workload describes one benchmark workload.
type workload struct {
	name string
	// clients is the number of closed-loop clients.
	clients int
	// shapes are the query shapes; a request instantiates one.
	shapes []bench.Query
	// setup builds the system (data, endpoints, servers, engine).
	setup func(ctx context.Context, e *env) (*sut, error)
	// texts returns the sequence's text generator for a set-up system:
	// nil keeps every shape's text as written.
	texts func(s *sut, seed int64, shapes []bench.Query) func(shape int) string
}

// env is what a setup may use besides its inputs.
type env struct {
	workDir string  // scratch space inside the checkout
	tr      *tracer // nil in untraced runs: no decorators are installed
	small   bool    // tiny data, for the benchmark's own tests
}

// sequencer produces a workload's request sequence: rounds in which every
// shape appears once, in an order shuffled by the seed. The sequence is a
// pure function of the seed (and of the text generator, itself seeded).
type sequencer struct {
	mu       sync.Mutex
	rng      *rand.Rand
	shapes   int
	text     func(shape int) string
	keepRows []int

	order []int
	pos   int
	seq   int64
}

func newSequencer(seed int64, keepRows []int, text func(int) string) *sequencer {
	return &sequencer{
		rng:      rand.New(rand.NewSource(seed)),
		shapes:   len(keepRows),
		text:     text,
		keepRows: keepRows,
	}
}

// next returns the next request. Once the deadline has passed it returns
// false at the next round boundary, so a phase ends with whole rounds and
// every shape gets the same number of samples; concurrent clients drain
// the last round together.
func (s *sequencer) next(pastDeadline bool) (request, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if pastDeadline && s.pos == len(s.order) {
		return request{}, false
	}
	if s.pos == len(s.order) {
		s.order = s.rng.Perm(s.shapes)
		s.pos = 0
	}
	shape := s.order[s.pos]
	s.pos++
	s.seq++
	return request{Seq: s.seq, Shape: shape, Text: s.text(shape), KeepRows: s.keepRows[shape]}, true
}

// counters is a point-in-time reading of every counter a phase reports as
// a delta.
type counters struct {
	endpoint    client.Snapshot
	allocBytes  uint64
	cpu         cpuTimes
	erhWait     float64 // seconds, summed over tasks
	planSecs    float64 // lusaild planning on plan-cache misses
	planHits    int64
	planMisses  int64
	admitWaits  int64 // admissions that queued for a slot
	blockHits   int64
	blockMisses int64
}

// cpuTimes is the runtime's estimate of the process's CPU time, in
// seconds: the GC's share and the total.
type cpuTimes struct{ gc, total float64 }

func (a cpuTimes) sub(b cpuTimes) cpuTimes { return cpuTimes{a.gc - b.gc, a.total - b.total} }
func (a cpuTimes) add(b cpuTimes) cpuTimes { return cpuTimes{a.gc + b.gc, a.total + b.total} }

func readCPU() cpuTimes {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return cpuTimes{s[0].Value.Float64(), s[1].Value.Float64()}
}

func readCounters(s *sut) counters {
	samples := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(samples)
	reg := obs.Default()
	c := counters{
		endpoint:   s.metrics.Snapshot(),
		allocBytes: samples[0].Value.Uint64(),
		cpu:        readCPU(),
		erhWait:    reg.Histogram(obs.MetricERHWaitSeconds, "", obs.LatencyBuckets).Sum(),
		planSecs:   reg.Histogram(obs.MetricServerPlanSeconds, "", obs.LatencyBuckets).Sum(),
		planHits:   reg.Counter(obs.MetricPlanCacheHits, "").Value(),
		planMisses: reg.Counter(obs.MetricPlanCacheMisses, "").Value(),
		admitWaits: reg.Histogram(obs.MetricAdmissionWaitSeconds, "", obs.LatencyBuckets).Count(),
	}
	for _, st := range s.disk {
		h, m, _ := st.CacheStats()
		c.blockHits += h
		c.blockMisses += m
	}
	return c
}

// liveHeapWatch samples the live heap (/gc/heap/live:bytes, the heap
// marked live by the latest GC) and keeps its maximum. Unlike a sampled
// HeapAlloc it does not depend on where between two GCs a sample lands.
type liveHeapWatch struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func watchLiveHeap() *liveHeapWatch {
	w := &liveHeapWatch{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			w.peak = max(w.peak, s[0].Value.Uint64())
			select {
			case <-w.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return w
}

// Peak stops sampling and returns the maximum live heap in bytes.
func (w *liveHeapWatch) Peak() uint64 {
	close(w.stop)
	<-w.done
	return w.peak
}

// phase is one timed stretch of closed-loop load.
type phase struct {
	name          string
	traced        bool
	outcomes      []outcome
	wall          time.Duration
	before, after counters
	peakLive      uint64
	settle        time.Duration  // spent settling the heap between requests
	settleCPU     cpuTimes       // CPU the settling GCs used
	layers        *layerCounters // traced phases only
	spans         []span
}

// runPhase drives the system with the workload's closed-loop clients for
// d, taking requests from seq until it runs dry. A lone client runs a GC
// before each request, outside its latency, the phase's timed wall time
// and its GC CPU share, so a request starts from the same heap state
// whichever request ran before it: the lubm shapes differ widely in
// garbage, and after Q4 the heap goal is near 2 GiB, so the next query
// would run without any GC while one after Q3 pays for its own.
func runPhase(ctx context.Context, name string, s *sut, seq *sequencer, clients int, d time.Duration) *phase {
	p := &phase{name: name, before: readCounters(s)}
	hw := watchLiveHeap()
	start := time.Now()
	deadline := start.Add(d)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				req, ok := seq.next(time.Now().After(deadline))
				if !ok {
					return
				}
				if clients == 1 {
					start, cpu0 := time.Now(), readCPU()
					runtime.GC()
					p.settleCPU = p.settleCPU.add(readCPU().sub(cpu0))
					p.settle += time.Since(start)
				}
				o := s.exec(ctx, c, req)
				mu.Lock()
				p.outcomes = append(p.outcomes, o)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	p.wall = time.Since(start)
	p.peakLive = hw.Peak()
	p.after = readCounters(s)
	return p
}
