package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	envred "repro"
	"repro/client"
	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/solver"
)

// requestTimeout bounds one request; no workload comes near it.
const requestTimeout = 2 * time.Minute

// bench is one running daemon with the state a workload keeps across its
// set-up, measured phase and checks.
type bench struct {
	w      *workload
	seed   int64
	traced bool
	gen    *Generator
	dir    string // per-run scratch directory inside the checkout

	srv   *service.Server
	hs    *http.Server
	done  chan struct{} // closed when hs.Serve has returned
	url   string
	hc    *http.Client
	cl    *client.Client
	store *countingStore // auto-churn only
	// serverTime maps a traced run's request index to its handler time.
	serverTime sync.Map

	// warmup (or doc) is posted during set-up, with fillReplies the last
	// set-up's replies; working is the fixed working set of warm-repeat
	// and auto-churn, first its verified first answers.
	warmup      []*Input
	doc         *Doc
	working     []*Input
	fillReplies []*request
	first       []answer
	quality     []float64 // Esize over RCM Esize of the working set's first answers
}

// countingStore counts the Get calls reaching the store the daemon was
// handed, the advisory cached-flag probe included (the daemon's own
// counters skip that probe).
type countingStore struct {
	envred.Store
	gets atomic.Int64
}

func (s *countingStore) Get(k envred.StoreKey) (*envred.StoreArtifact, error) {
	s.gets.Add(1)
	return s.Store.Get(k)
}

// start launches a daemon with default Config apart from Seed and, for
// workloads with a store, a fresh fs store under b.dir.
func (b *bench) start(rep int) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listening: %w", err)
	}
	cfg := service.Config{Seed: b.seed}
	if b.w.store {
		st, err := envred.OpenStore("fs://" + filepath.Join(b.dir, fmt.Sprintf("store-%d", rep)))
		if err != nil {
			ln.Close()
			return fmt.Errorf("opening store: %w", err)
		}
		b.store = &countingStore{Store: st}
		cfg.Store = b.store
	}
	b.srv = service.New(cfg)
	var h http.Handler = b.srv.Handler()
	var rt http.RoundTripper = &http.Transport{MaxIdleConnsPerHost: b.w.clients}
	if b.traced {
		h, rt = b.timeHandler(h), tagTransport{rt}
	}
	b.hs = &http.Server{Handler: h}
	b.done = make(chan struct{})
	go func() {
		defer close(b.done)
		_ = b.hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	b.url = "http://" + ln.Addr().String()
	b.hc = &http.Client{Transport: rt}
	b.cl = client.New(b.url, client.WithHTTPClient(b.hc), client.WithRetries(0, 0))
	return nil
}

// stop shuts the daemon down and waits for its goroutines.
func (b *bench) stop() error {
	if b.hs == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := b.hs.Shutdown(ctx)
	<-b.done
	b.hc.CloseIdleConnections()
	err = errors.Join(err, b.srv.Shutdown(ctx))
	if b.store != nil {
		err = errors.Join(err, b.store.Close())
	}
	b.hs, b.srv, b.store = nil, nil, nil
	return err
}

// counters are the daemon's /metrics counters the guards read.
type counters struct {
	cacheHits, cacheMisses, storeHits, storeMisses, ordersOK float64
}

func (b *bench) scrape(ctx context.Context) (counters, error) {
	text, err := b.cl.Metrics(ctx)
	if err != nil {
		return counters{}, fmt.Errorf("scraping /metrics: %w", err)
	}
	var c counters
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		name := line[:i]
		switch {
		case name == "envorderd_cache_hits_total":
			c.cacheHits = v
		case name == "envorderd_cache_misses_total":
			c.cacheMisses = v
		case name == "envorderd_store_hits_total":
			c.storeHits = v
		case name == "envorderd_store_misses_total":
			c.storeMisses = v
		case strings.HasPrefix(name, "envorderd_orders_total{") && strings.Contains(name, `status="ok"`):
			c.ordersOK += v
		}
	}
	return c, nil
}

func (c counters) sub(o counters) counters {
	return counters{c.cacheHits - o.cacheHits, c.cacheMisses - o.cacheMisses,
		c.storeHits - o.storeHits, c.storeMisses - o.storeMisses, c.ordersOK - o.ordersOK}
}

// frac returns a/(a+b), or 0 when both are 0.
func frac(a, b float64) float64 {
	if a+b == 0 {
		return 0
	}
	return a / (a + b)
}

// meter accumulates wall time, process CPU time and heap allocation over
// the intervals in which at least one request is in flight. Input
// generation and answer checks done between requests of a single client
// therefore stay out of every measured figure.
type meter struct {
	mu       sync.Mutex
	inflight int
	since    time.Time
	cpu0     time.Duration
	alloc0   uint64
	busy     time.Duration
	cpu      time.Duration
	alloc    uint64
}

func (m *meter) enter() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.inflight == 0 {
		m.since, m.cpu0, m.alloc0 = time.Now(), cpuTime(), heapAllocs()
	}
	m.inflight++
}

func (m *meter) leave() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.inflight--
	if m.inflight == 0 {
		m.busy += time.Since(m.since)
		m.cpu += cpuTime() - m.cpu0
		m.alloc += heapAllocs() - m.alloc0
	}
}

// totals returns the busy time, CPU time and allocation so far, the open
// interval included.
func (m *meter) totals() totals {
	m.mu.Lock()
	defer m.mu.Unlock()
	t := totals{m.busy, m.cpu, m.alloc}
	if m.inflight > 0 {
		t.busy += time.Since(m.since)
		t.cpu += cpuTime() - m.cpu0
		t.alloc += heapAllocs() - m.alloc0
	}
	return t
}

// totals are a meter's readings.
type totals struct {
	busy  time.Duration
	cpu   time.Duration
	alloc uint64
}

func (t totals) sub(o totals) totals {
	return totals{t.busy - o.busy, t.cpu - o.cpu, t.alloc - o.alloc}
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

func heapAllocs() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// heapPeaks samples the bytes held by heap objects, live and not yet
// swept, every 5 ms until stop is called, and returns the largest sample
// taken during each pass; pass reports the index of the pass under way.
func heapPeaks(pass func() int) (stop func() []uint64) {
	quit := make(chan struct{})
	res := make(chan []uint64)
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		var peaks []uint64
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			i := pass()
			for len(peaks) <= i {
				peaks = append(peaks, 0)
			}
			peaks[i] = max(peaks[i], s[0].Value.Uint64())
			select {
			case <-quit:
				res <- peaks
				return
			case <-t.C:
			}
		}
	}()
	return func() []uint64 {
		close(quit)
		return <-res
	}
}

// result is the outcome of one measured request (one document for
// batches).
type result struct {
	i       int // request index
	latency time.Duration
	orders  int // orderings attempted by the request
	failed  int // orderings that failed or failed a check
	lanczos int // orderings whose solve reports the lanczos scheme
	solves  []solver.Stats
	ratios  []float64 // Esize over RCM Esize, first minCycles passes only
}

// phase is the outcome of a measured closed loop.
type phase struct {
	results []result
	cycles  []totals // meter readings over each pass through the working set
	peaks   []uint64 // heap peak of each pass
	busy    time.Duration
	orders  int
	failed  int
	before  counters
	after   counters
	eigen   int64
	gets    int64
}

// minCycles is the fewest passes over the working set a measured phase
// makes, however short --seconds is: esize_vs_rcm reads the first
// minCycles passes, so it depends on the seed alone.
const minCycles = 3

// loop drives the workload's clients in a closed loop until the meter has
// run for seconds, then finishes the cycle in progress so every run sends
// whole cycles of the working set.
func (b *bench) loop(ctx context.Context, seconds float64) (*phase, error) {
	ph := &phase{}
	before, err := b.scrape(ctx)
	if err != nil {
		return nil, err
	}
	var gets0 int64
	if b.store != nil {
		gets0 = b.store.gets.Load()
	}
	eig0 := core.EigensolveCount()

	var (
		m     meter
		mu    sync.Mutex
		next  int
		limit = -1
		errs  []error
	)
	cycle := b.w.cycle
	var (
		last   totals
		passes atomic.Int64
	)
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if next == (len(ph.cycles)+1)*cycle {
			// A pass ended. With more than one client, requests in flight
			// at the boundary split their time between two passes.
			t := m.totals()
			ph.cycles = append(ph.cycles, t.sub(last))
			passes.Add(1)
			last = t
			if limit < 0 && next >= minCycles*cycle && t.busy.Seconds() >= seconds {
				limit = next
			}
		}
		if next == limit || len(errs) > 0 {
			return 0, false
		}
		next++
		return next - 1, true
	}
	stopPeaks := heapPeaks(func() int { return int(passes.Load()) })
	var wg sync.WaitGroup
	for c := 0; c < b.w.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, ok := take()
				if !ok {
					return
				}
				r, err := b.w.next(b, i)
				if err != nil {
					mu.Lock()
					errs = append(errs, err)
					mu.Unlock()
					return
				}
				rctx, cancel := context.WithTimeout(context.WithValue(ctx, reqIDKey{}, i), requestTimeout)
				m.enter()
				t0 := time.Now()
				err = b.send(rctx, r)
				lat := time.Since(t0)
				m.leave()
				cancel()
				res := b.check(r, err)
				res.i, res.latency = i, lat
				mu.Lock()
				ph.results = append(ph.results, res)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	ph.peaks = stopPeaks()
	if len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	ph.busy = m.busy
	// The last slot holds the tail after the final pass ended.
	ph.peaks = ph.peaks[:min(len(ph.peaks), len(ph.cycles))]
	ph.eigen = core.EigensolveCount() - eig0
	if b.store != nil {
		ph.gets = b.store.gets.Load() - gets0
	}
	after, err := b.scrape(ctx)
	if err != nil {
		return nil, err
	}
	ph.before, ph.after = before, after
	for _, r := range ph.results {
		ph.orders += r.orders
		ph.failed += r.failed
	}
	return ph, nil
}

// runDir makes the run's scratch directory inside the checkout.
func runDir() (string, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(".bench_build", "run-*")
}
