package main

import (
	"fmt"
	"math"
	"net/http"
	"sort"

	"cuisinevol/internal/randx"
	"cuisinevol/internal/recipe"
	"cuisinevol/internal/server"
	"cuisinevol/internal/server/loadtest"
)

const (
	repeatRegions    = 8       // cuisines the hot keys cover
	repeatReplicates = 10      // replicates of the evolve and fig4 keys
	repeatPage       = 8       // requests in one dashboard refresh
	repeatSeqLen     = 1 << 16 // requests pre-drawn per client, then cycled
	zipfExponent     = 1.1     // key popularity skew
	revalidateEvery  = 5       // about 1 in 5 requests sends If-None-Match
)

// repeatKeys returns the hot keys: mine, mine by category, overrep,
// evolve and single-region fig4 for repeatRegions cuisines of the corpus.
// The keys and their popularity ranks are fixed, so every workload seed
// exercises the same set at the same skew.
func repeatKeys(corpus *recipe.Corpus) []string {
	regions := append([]string(nil), corpus.Regions()...)
	sort.Strings(regions)
	perm := randx.New(0x7265706561740001).Perm(len(regions))
	var keys []string
	for _, i := range perm[:min(repeatRegions, len(regions))] {
		r := regions[i]
		keys = append(keys,
			"/v1/mine?region="+r,
			"/v1/mine?region="+r+"&categories=true",
			"/v1/overrep?region="+r,
			fmt.Sprintf("/v1/evolve?region=%s&replicates=%d", r, repeatReplicates),
			fmt.Sprintf("/v1/fig4?regions=%s&replicates=%d", r, repeatReplicates),
		)
	}
	return keys
}

// repeatReq is one draw of the skewed mix.
type repeatReq struct {
	key        int
	revalidate bool
}

// repeatMix draws each client's request sequence from the seed: key
// popularity follows a Zipf law over a fixed ranking of the keys, and
// about one request in revalidateEvery revalidates. Pure in (seed, nkeys).
func repeatMix(seed uint64, nkeys, clients, length int) [][]repeatReq {
	rank := randx.New(0x7265706561740002).Perm(nkeys)
	rng := randx.New(seed ^ 0x7265706561740003)
	weights := make([]float64, nkeys)
	for i := range weights {
		weights[rank[i]] = 1 / math.Pow(float64(i+1), zipfExponent)
	}
	sampler := randx.NewWeightedSampler(weights)
	out := make([][]repeatReq, clients)
	for c := range out {
		src := rng.Split()
		seq := make([]repeatReq, length)
		for i := range seq {
			seq[i] = repeatReq{key: sampler.Draw(src), revalidate: src.Intn(revalidateEvery) == 0}
		}
		out[c] = seq
	}
	return out
}

// repeatState is what set-up leaves for the timed phase.
type repeatState struct {
	keys  []string
	etags []string
}

func runServeRepeat(rc *runConfig) (*outcome, error) {
	o := newOutcome()
	r, setup, err := setupMedian(rc, o, func(corpus *recipe.Corpus) (*rig, error) {
		r, err := singleNode(rc, corpus)
		if err != nil {
			return nil, err
		}
		st := &repeatState{keys: repeatKeys(corpus)}
		for _, k := range st.keys {
			rep, err := r.c.do(http.MethodGet, k, nil, nil)
			if err != nil || rep.status != http.StatusOK {
				r.close()
				return nil, fmt.Errorf("priming %s: status %d, %v", k, rep.status, err)
			}
			st.etags = append(st.etags, rep.etag)
		}
		r.extra = st
		return r, nil
	})
	if err != nil {
		return nil, err
	}
	defer r.close()
	st := r.extra.(*repeatState)

	// The expected bodies: a serial replay on a fresh single node.
	ref, err := server.New(baseOptions(rc, r.corpus))
	if err != nil {
		return nil, err
	}
	want := loadtest.Baseline(ref.Handler(), loadtest.Mix{Seed: rc.seed, Paths: st.keys})
	if len(want) != len(st.keys) {
		return nil, fmt.Errorf("baseline answered %d of %d keys with 200", len(want), len(st.keys))
	}

	mix := repeatMix(rc.seed, len(st.keys), rc.clients, repeatSeqLen)
	cursor := make([]int, rc.clients)
	p, err := timedPhase(rc, r, rc.clients, func(c, _ int, t *task, tl *tally) bool {
		for i := 0; i < repeatPage; i++ {
			q := mix[c][cursor[c]%len(mix[c])]
			cursor[c]++
			key := st.keys[q.key]
			var hdr http.Header
			if q.revalidate {
				hdr = http.Header{"If-None-Match": {st.etags[q.key]}}
			}
			tl.attempted++
			rep, err := t.call(http.MethodGet, key, nil, hdr)
			switch {
			case err != nil:
				tl.failf("%s: %v", key, err)
				continue
			case !okStatus(rep.status):
				tl.failf("%s: status %d", key, rep.status)
				continue
			case rep.status == http.StatusNotModified && !q.revalidate:
				tl.failf("%s: 304 without If-None-Match", key)
				continue
			case rep.status == http.StatusOK && string(rep.body) != want[key]:
				tl.failf("%s: body differs from the single-node replay", key)
				continue
			}
			tl.read(t, rep.dur)
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	if err := p.report(o, setup, rc.relaxTail); err != nil {
		return nil, err
	}
	if rc.tr != nil {
		if err := p.traceReport(o, rc.tr); err != nil {
			return nil, err
		}
	}
	o.detail["keys"] = float64(len(st.keys))
	finish(o)
	return o, nil
}

// finish derives the metrics that depend on every check having run.
func finish(o *outcome) {
	o.e2e["ok_rate"] = ratio(float64(o.attempted-o.failed), float64(o.attempted))
}
