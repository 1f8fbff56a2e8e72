package main

import (
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"time"

	"cuisinevol/internal/recipe"
	"cuisinevol/internal/server"
	"cuisinevol/internal/synth"
)

// setupRuns is how many times a run sets its workload up; setup_s is
// the median.
const setupRuns = 5

// rig is one set-up serve workload: the servers, their handlers (for
// /metrics), and the loopback listener the clients talk to.
type rig struct {
	corpus *recipe.Corpus
	nodes  []http.Handler // every node's handler, scraped for /metrics
	lb     *loopback
	c      *client
	extra  any // workload-specific state built during set-up
}

func (r *rig) close() {
	r.c.closeIdle()
	r.lb.close()
}

// setupMedian sets the workload up setupRuns times — generate the
// corpus, then build the rig on it — and keeps the last rig. It returns
// the median set-up time and records the median generation time as
// synth.generate_s.
func setupMedian(rc *runConfig, o *outcome, build func(*recipe.Corpus) (*rig, error)) (*rig, float64, error) {
	var times, gens []float64
	var last *rig
	for i := 0; i < setupRuns; i++ {
		if last != nil {
			last.close()
			last = nil
			runtime.GC()
		}
		start := time.Now()
		corpus, gen, err := generate(rc, corpusSeed)
		if err != nil {
			return nil, 0, err
		}
		r, err := build(corpus)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		gens = append(gens, gen.Seconds())
		last = r
	}
	o.layers["synth.generate_s"] = median(gens)
	return last, median(times), nil
}

// generate builds the synthetic corpus at the benchmark's scale, as
// experiment.Config.Corpus does for a server with no corpus supplied.
func generate(rc *runConfig, seed uint64) (*recipe.Corpus, time.Duration, error) {
	start := time.Now()
	gen := synth.DefaultConfig(seed)
	gen.RecipeScale = rc.scale
	c, err := synth.Generate(gen)
	if err != nil {
		return nil, 0, fmt.Errorf("generating corpus: %w", err)
	}
	return c, time.Since(start), nil
}

// baseOptions are the server options every serve workload uses; only
// the corpus and the peer fields vary.
func baseOptions(rc *runConfig, corpus *recipe.Corpus) server.Options {
	return server.Options{Seed: corpusSeed, RecipeScale: rc.scale, Corpus: corpus}
}

// serveLoopback serves h to the clients: inside a "server.handler" span
// when traced, behind the test hook when one is set.
func serveLoopback(rc *runConfig, h http.Handler) (*loopback, *client, error) {
	h = traceServer(rc.tr, "server.handler", h)
	if rc.wrap != nil {
		h = rc.wrap(h)
	}
	lb, err := startLoopback(h)
	if err != nil {
		return nil, nil, err
	}
	return lb, newClient(lb.base, rc.clients), nil
}

// singleNode builds one server over corpus and serves it on loopback.
func singleNode(rc *runConfig, corpus *recipe.Corpus) (*rig, error) {
	srv, err := server.New(baseOptions(rc, corpus))
	if err != nil {
		return nil, err
	}
	lb, c, err := serveLoopback(rc, srv.Handler())
	if err != nil {
		return nil, err
	}
	return &rig{corpus: corpus, nodes: []http.Handler{srv.Handler()}, lb: lb, c: c}, nil
}

// phase is the timed part of a serve run: /metrics on every node before
// and after, the closed loop in between.
type phase struct {
	tally   *tally
	clients []*tally
	elapsed time.Duration
	before  []series
	after   []series
	rss     float64 // median over the phase's windows of their peak RSS, MB
}

func timedPhase(rc *runConfig, r *rig, clients int, body func(client, seq int, t *task, tl *tally) bool) (p *phase, err error) {
	tallies := make([]*tally, 0, clients)
	defer func() {
		for _, tl := range tallies {
			err = errors.Join(err, tl.load())
		}
		if err != nil {
			p = nil
		}
	}()
	for i := 0; i < clients; i++ {
		tl, err := newTally(rc.out)
		if err != nil {
			return nil, err
		}
		tallies = append(tallies, tl)
	}
	before, err := scrapeAll(r.nodes)
	if err != nil {
		return nil, err
	}
	sampler := sampleRSS()
	start := time.Now()
	closedLoop(tallies, rc.timed, r.c, rc.tr, body)
	elapsed := time.Since(start)
	rss := sampler.median()
	for _, tl := range tallies {
		if err := tl.load(); err != nil {
			return nil, err
		}
	}
	after, err := scrapeAll(r.nodes)
	if err != nil {
		return nil, err
	}
	return &phase{tally: merge(tallies), clients: tallies, elapsed: elapsed, before: before, after: after, rss: rss}, nil
}

// report fills the end-to-end metrics of a serve run and the counter
// metrics every serve workload shares. reads must hold at least 1000
// samples for the p99 to be reported.
func (p *phase) report(o *outcome, setup float64, relaxTail bool) error {
	t := p.tally
	o.attempted += t.attempted
	for _, f := range t.failed {
		o.fail("%s", f)
	}
	o.e2e["setup_s"] = setup
	o.e2e["peak_rss_mb"] = p.rss
	// Throughput, the median task and the median read are medians over
	// one-second windows of the phase, so a burst of interference on the
	// host moves them less.
	rates := windowRates(t.okAt, p.elapsed)
	o.e2e["throughput_rps"] = median(rates)
	for i, r := range rates {
		o.detail[fmt.Sprintf("window%02d_rps", i)] = r
	}
	o.e2e["wall_s"] = median(windowMedians(t.taskAt, t.tasks, p.elapsed))
	o.e2e["latency_p50_ms"] = median(windowMedians(t.readAt, t.reads, p.elapsed))
	o.detail["reads"] = float64(len(t.reads))
	o.detail["writes"] = float64(len(t.writes))
	o.detail["tasks"] = float64(len(t.tasks) + len(t.tracedTask))
	o.detail["whole_phase_rps"] = float64(len(t.okAt)) / p.elapsed.Seconds()
	p99, err := tail(t.reads, 0.99, relaxTail)
	if err != nil {
		return fmt.Errorf("read latency: %w (run longer)", err)
	}
	o.e2e["latency_p99_ms"] = p99

	d := sumDeltas(p.before, p.after)
	reqs := float64(t.attempted)
	hits, misses := d.family("cuisinevol_cache_hits_total"), d.family("cuisinevol_cache_misses_total")
	ihits, imisses := d.family("cuisinevol_index_hits_total"), d.family("cuisinevol_index_misses_total")
	o.layers["server.cache_hit_ratio"] = ratio(hits, hits+misses)
	o.layers["server.computations_per_req"] = ratio(d.family("cuisinevol_computations_total"), reqs)
	o.layers["server.coalesced_per_req"] = ratio(d.family("cuisinevol_coalesced_requests_total"), reqs)
	o.layers["itemset.index_hit_ratio"] = ratio(ihits, ihits+imisses)
	o.layers["peering.proxied_share"] = ratio(d.family("cuisinevol_peer_proxied_total"), reqs)
	o.layers["itemset.index_builds_per_read"] = ratio(d.family("cuisinevol_index_builds_total"), float64(len(t.reads)))
	store := 0.0
	for _, s := range p.after {
		store += s["cuisinevol_corpus_store_bytes"]
	}
	o.layers["corpusstore.store_bytes"] = store
	for _, name := range []string{
		"cuisinevol_cache_hits_total", "cuisinevol_cache_misses_total", "cuisinevol_computations_total",
		"cuisinevol_coalesced_requests_total", "cuisinevol_index_hits_total", "cuisinevol_index_misses_total",
		"cuisinevol_index_builds_total", "cuisinevol_peer_proxied_total", "cuisinevol_peer_fallback_total",
		"cuisinevol_shed_total", "cuisinevol_live_appends_total", "cuisinevol_http_requests_total",
	} {
		o.detail["delta."+name] = d.family(name)
	}
	return nil
}

// traceReport fills the span-derived metrics every traced serve run
// shares: handler and wire time, accounted share and tracing overhead.
func (p *phase) traceReport(o *outcome, tr *tracer) error {
	spans := tr.snapshot()
	st := layerStats(spans)
	if h := st["server.handler"]; h.Count > 0 {
		o.layers["server.handler_us"] = us(h.Total) / float64(h.Count)
	}
	if c := st["client.request"]; c.Count > 0 {
		o.layers["server.wire_us"] = us(c.Self) / float64(c.Count)
	}
	if f := st["peering.forward"]; f.Count > 0 {
		o.layers["peering.forward_us"] = us(f.Self) / float64(f.Count)
	}
	share, err := accountedShare(spans, "client.task")
	if err != nil {
		return err
	}
	o.layers["trace.accounted_share"] = share
	o.layers["trace.overhead"] = mean(p.tally.tracedTask)/mean(p.tally.tasks) - 1
	for name, s := range st {
		o.detail["span."+name+".count"] = float64(s.Count)
		o.detail["span."+name+".self_us"] = us(s.Self) / float64(s.Count)
	}
	return nil
}
