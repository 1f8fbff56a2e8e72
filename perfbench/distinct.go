package main

import (
	"fmt"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"cuisinevol/internal/itemset"
	"cuisinevol/internal/overrep"
	"cuisinevol/internal/peering"
	"cuisinevol/internal/recipe"
	"cuisinevol/internal/server"
	"cuisinevol/internal/server/loadtest"
)

const (
	ringNodes     = 3
	distinctMax   = 100000 // the largest mix whose mine "top" stays in range
	notebookBatch = 8      // requests in one notebook batch
	baselineChunk = 500    // paths replayed per loadtest.Baseline call
	probeSample   = 200    // requests whose kernels are re-timed directly
)

// frontDoor spreads requests round-robin over the ring's nodes, as an
// L4 balancer would.
type frontDoor struct {
	nodes []http.Handler
	next  atomic.Uint64
}

func (f *frontDoor) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.nodes[int(f.next.Add(1)%uint64(len(f.nodes)))].ServeHTTP(w, r)
}

// ring builds the 3-node cluster over one shared corpus: the nodes reach
// each other through a peering.MemTransport, and the front door is what
// the loopback listener serves. With a tracer, peer forwards and the
// owner side of each forward record spans.
func ring(rc *runConfig, corpus *recipe.Corpus) (*rig, error) {
	mem := peering.NewMemTransport()
	var transport http.RoundTripper = mem
	if rc.tr != nil {
		transport = traceTransport{tr: rc.tr, next: mem}
	}
	peers := make(map[string]string, ringNodes)
	for i := 0; i < ringNodes; i++ {
		id := fmt.Sprintf("n%d", i)
		peers[id] = "http://" + id
	}
	r := &rig{corpus: corpus}
	for i := 0; i < ringNodes; i++ {
		opts := baseOptions(rc, corpus)
		opts.NodeID = fmt.Sprintf("n%d", i)
		opts.Peers = peers
		opts.PeerTransport = transport
		srv, err := server.New(opts)
		if err != nil {
			return nil, err
		}
		mem.Register(opts.NodeID, traceContext(rc.tr, "server.owner", srv.Handler()))
		r.nodes = append(r.nodes, srv.Handler())
	}
	// Warm every node's region indexes with an overrep query outside the
	// mix (k above its range), computed locally on each node: the peer
	// header marks it as already forwarded.
	local := http.Header{peering.PeerHeader: {"warmup"}}
	for _, h := range r.nodes {
		for _, region := range corpus.Regions() {
			path := "/v1/overrep?k=1000&region=" + url.QueryEscape(region)
			if code, _ := send(h, http.MethodGet, path, nil, local); code != http.StatusOK {
				return nil, fmt.Errorf("warming %s: status %d", region, code)
			}
		}
	}
	lb, c, err := serveLoopback(rc, &frontDoor{nodes: r.nodes})
	if err != nil {
		return nil, err
	}
	r.lb, r.c = lb, c
	return r, nil
}

func runServeDistinct(rc *runConfig) (*outcome, error) {
	o := newOutcome()
	r, setup, err := setupMedian(rc, o, func(corpus *recipe.Corpus) (*rig, error) { return ring(rc, corpus) })
	if err != nil {
		return nil, err
	}
	defer r.close()

	mix := loadtest.Distinct(r.corpus, rc.seed, distinctMax)
	var cursor atomic.Int64
	p, err := timedPhase(rc, r, rc.clients, func(_, _ int, t *task, tl *tally) bool {
		first := int(cursor.Add(notebookBatch)) - notebookBatch
		for i := first; i < first+notebookBatch && i < len(mix.Paths); i++ {
			path := mix.Paths[i]
			tl.attempted++
			rep, err := t.call(http.MethodGet, path, nil, nil)
			switch {
			case err != nil:
				tl.failf("%s: %v", path, err)
				continue
			case rep.status != http.StatusOK:
				tl.failf("%s: status %d", path, rep.status)
				continue
			}
			tl.read(t, rep.dur)
			tl.bodies = append(tl.bodies, bodyRecord{key: path, digest: digest(rep.body)})
		}
		return first+notebookBatch < len(mix.Paths)
	})
	if err != nil {
		return nil, err
	}
	if err := p.report(o, setup, rc.relaxTail); err != nil {
		return nil, err
	}
	if int(cursor.Load()) >= len(mix.Paths) {
		o.detail["mix_exhausted"] = 1
	}
	if err := checkAgainstBaseline(rc, r.corpus, p.tally.bodies, o); err != nil {
		return nil, err
	}
	if rc.tr != nil {
		if err := p.traceReport(o, rc.tr); err != nil {
			return nil, err
		}
		if err := probeKernels(rc, r.corpus, mix.Paths[:min(probeSample, len(mix.Paths))], o); err != nil {
			return nil, err
		}
	}
	finish(o)
	return o, nil
}

// checkAgainstBaseline replays the recorded paths serially on a fresh
// single node, in chunks, and counts every body whose digest differs.
func checkAgainstBaseline(rc *runConfig, corpus *recipe.Corpus, got []bodyRecord, o *outcome) error {
	ref, err := server.New(baseOptions(rc, corpus))
	if err != nil {
		return err
	}
	start := time.Now()
	for lo := 0; lo < len(got); lo += baselineChunk {
		chunk := got[lo:min(lo+baselineChunk, len(got))]
		paths := make([]string, len(chunk))
		for i, b := range chunk {
			paths[i] = b.key
		}
		want := loadtest.Baseline(ref.Handler(), loadtest.Mix{Seed: rc.seed, Paths: paths})
		for _, b := range chunk {
			w, ok := want[b.key]
			if !ok {
				o.fail("%s: the single-node replay did not answer 200", b.key)
			} else if digest([]byte(w)) != b.digest {
				o.fail("%s: body differs from the single-node replay", b.key)
			}
		}
	}
	o.detail["baseline_s"] = time.Since(start).Seconds()
	o.detail["checked_bodies"] = float64(len(got))
	return nil
}

// probeKernels re-runs the kernels behind a sample of mix requests
// directly — itemset.MineIndexed for mine, overrep TopKFromIndex for
// overrep — on indexes built from the same corpus, inside spans.
func probeKernels(rc *runConfig, corpus *recipe.Corpus, paths []string, o *outcome) error {
	all, err := itemset.BuildIndex(corpus.AllView().Transactions())
	if err != nil {
		return err
	}
	indexes := map[string]*itemset.Index{}
	regionIndex := func(region string) (*itemset.Index, error) {
		if ix, ok := indexes[region]; ok {
			return ix, nil
		}
		ix, err := itemset.BuildIndex(corpus.Region(region).Transactions())
		indexes[region] = ix
		return ix, err
	}
	an := overrep.NewFromIndex(corpus, all)
	workers := runtime.GOMAXPROCS(0)
	var mine, topk []float64
	for _, p := range paths {
		u, err := url.Parse(p)
		if err != nil {
			return err
		}
		q := u.Query()
		region := q.Get("region")
		ix, err := regionIndex(region)
		if err != nil {
			return err
		}
		root := rc.tr.newID()
		start := time.Now()
		switch u.Path {
		case "/v1/mine":
			d := rc.tr.timed("itemset.mine_indexed", root, root, func() {
				_, err = itemset.MineIndexed(ix, 0.05, itemset.MineOptions{Workers: workers})
			})
			mine = append(mine, us(d))
		case "/v1/overrep":
			k, _ := strconv.Atoi(q.Get("k"))
			d := rc.tr.timed("overrep.topk", root, root, func() {
				_, err = an.TopKFromIndex(region, ix, k)
			})
			topk = append(topk, us(d))
		}
		rc.tr.record(root, 0, root, "probe.kernel", start, time.Now())
		if err != nil {
			return fmt.Errorf("probing %s: %w", p, err)
		}
	}
	o.layers["itemset.mine_indexed_us"] = mean(mine)
	o.layers["overrep.topk_us"] = mean(topk)
	return nil
}
