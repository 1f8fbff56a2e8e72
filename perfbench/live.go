package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"cuisinevol/internal/corpusstore"
	"cuisinevol/internal/ingest"
	"cuisinevol/internal/itemset"
	"cuisinevol/internal/randx"
	"cuisinevol/internal/recipe"
	"cuisinevol/internal/server"
	"cuisinevol/internal/server/loadtest"
)

const (
	liveName      = "live"
	appendRecords = 20   // raw records in one append
	readBack      = 3    // cuisines the writer reads back after each append
	appendPool    = 0.02 // scale of the corpus the appended records come from
	liveProbes    = 10   // appends re-timed layer by layer in a traced run
	liveKeep      = 8    // versions the writer keeps; older ones it deletes
)

// liveInputs are the generated inputs of serve-live, all pure functions
// of the seed: the base upload and the append batches.
type liveInputs struct {
	base    []byte   // raw JSONL of the Rawify'd base corpus
	batches [][]byte // raw JSONL, appendRecords records each
	regions []string // cuisines present in the base corpus, sorted
}

func makeLiveInputs(rc *runConfig, corpus *recipe.Corpus) (*liveInputs, error) {
	in := &liveInputs{regions: append([]string(nil), corpus.Regions()...)}
	sort.Strings(in.regions)
	var buf bytes.Buffer
	if err := ingest.WriteRawJSONL(&buf, ingest.Rawify(corpus, rc.seed)); err != nil {
		return nil, err
	}
	in.base = buf.Bytes()
	poolCfg := *rc
	poolCfg.scale = appendPool
	pool, _, err := generate(&poolCfg, rc.seed^0x6c697665)
	if err != nil {
		return nil, err
	}
	raws := ingest.Rawify(pool, rc.seed^0x6c697665)
	for lo := 0; lo+appendRecords <= len(raws); lo += appendRecords {
		var b bytes.Buffer
		if err := ingest.WriteRawJSONL(&b, raws[lo:lo+appendRecords]); err != nil {
			return nil, err
		}
		in.batches = append(in.batches, b.Bytes())
	}
	if len(in.batches) == 0 {
		return nil, fmt.Errorf("append pool too small")
	}
	return in, nil
}

// liveRead is one read of a live version, recorded for the check.
type liveRead struct {
	version int
	body    bodyRecord
}

// liveState is what set-up leaves for the timed phase.
type liveState struct {
	version atomic.Int64   // latest version the writer has read back
	inUse   []atomic.Int64 // per reader (client 1 on), the version its task reads
	next    int            // oldest version the writer has not deleted
}

// retire returns the versions the writer deletes once newest exists: those
// more than liveKeep behind it that no reader is still reading. A reader
// publishes a version before reading it and versions only grow, so every
// version below the smallest published one is free.
func (st *liveState) retire(newest int) []int {
	floor := newest
	for i := 1; i < len(st.inUse); i++ {
		floor = min(floor, int(st.inUse[i].Load()))
	}
	var out []int
	for ; st.next <= newest-liveKeep && st.next < floor; st.next++ {
		out = append(out, st.next)
	}
	return out
}

// liveWrite is one append and the deletions that followed it.
type liveWrite struct {
	body    bodyRecord
	deleted []int
}

// appendReply is the part of the append response the writer needs.
type appendReply struct {
	Corpus struct {
		Version int `json:"version"`
	} `json:"corpus"`
}

func uploadPath() string { return "/v1/corpora?format=jsonl&name=" + liveName }

func appendPath(version int) string {
	return fmt.Sprintf("/v1/corpora/%s@%d/append?format=jsonl", liveName, version)
}

func liveReadPath(endpoint, region string, version int) string {
	return fmt.Sprintf("/v1/%s?corpus=%s@%d&region=%s", endpoint, liveName, version, region)
}

// readerPath is the reader's n-th request: like loadtest.Distinct, the
// numeric parameter makes it a key of its own, so it is computed against
// the version's indexes instead of served from the result cache.
func readerPath(n int, region string, version int) string {
	if n%2 == 0 {
		return fmt.Sprintf("/v1/mine?corpus=%s@%d&region=%s&top=%d", liveName, version, region, 1+n)
	}
	return fmt.Sprintf("/v1/overrep?corpus=%s@%d&k=%d&region=%s", liveName, version, 1+n%500, region)
}

func deletePath(version int) string { return fmt.Sprintf("/v1/corpora/%s@%d", liveName, version) }

func runServeLive(rc *runConfig) (*outcome, error) {
	o := newOutcome()
	var uploadTimes []float64
	var in *liveInputs
	r, setup, err := setupMedian(rc, o, func(corpus *recipe.Corpus) (*rig, error) {
		var err error
		if in == nil {
			if in, err = makeLiveInputs(rc, corpus); err != nil {
				return nil, err
			}
		}
		r, err := singleNode(rc, corpus)
		if err != nil {
			return nil, err
		}
		rep, err := r.c.do(http.MethodPost, uploadPath(), in.base, nil)
		if err != nil || rep.status != http.StatusCreated {
			r.close()
			return nil, fmt.Errorf("uploading %s: status %d, %v", liveName, rep.status, err)
		}
		uploadTimes = append(uploadTimes, rep.dur.Seconds())
		st := &liveState{inUse: make([]atomic.Int64, max(rc.clients, 2)), next: 1}
		st.version.Store(1)
		for i := range st.inUse {
			st.inUse[i].Store(1)
		}
		r.extra = st
		return r, nil
	})
	if err != nil {
		return nil, err
	}
	defer r.close()
	st := r.extra.(*liveState)
	o.layers["corpusstore.import_s"] = median(uploadTimes)

	// Client 0 writes and reads its writes back; the others read the
	// newest version the writer has announced. Each client's choices come
	// from its own seeded stream.
	rngs := make([]*randx.Source, max(rc.clients, 2))
	root := randx.New(rc.seed ^ 0x6c6976650002)
	for i := range rngs {
		rngs[i] = root.Split()
	}
	reads := make([][]liveRead, len(rngs))
	var writes []liveWrite
	readOne := func(c int, t *task, tl *tally, path string, version int) {
		tl.attempted++
		rep, err := t.call(http.MethodGet, path, nil, nil)
		switch {
		case err != nil:
			tl.failf("%s: %v", path, err)
			return
		case rep.status != http.StatusOK:
			tl.failf("%s: status %d", path, rep.status)
			return
		}
		tl.read(t, rep.dur)
		reads[c] = append(reads[c], liveRead{version: version, body: bodyRecord{key: path, digest: digest(rep.body)}})
	}
	p, err := timedPhase(rc, r, len(rngs), func(c, seq int, t *task, tl *tally) bool {
		rng := rngs[c]
		if c != 0 {
			v := int(st.version.Load())
			st.inUse[c].Store(int64(v))
			for i := 0; i < 2; i++ {
				readOne(c, t, tl, readerPath(2*seq+i, randx.Choice(rng, in.regions), v), v)
			}
			return true
		}
		v := int(st.version.Load())
		tl.attempted++
		rep, err := t.call(http.MethodPost, appendPath(v), in.batches[seq%len(in.batches)], nil)
		if err != nil || rep.status != http.StatusCreated {
			tl.failf("append %d: status %d, %v", seq, rep.status, err)
			return false // later appends would name a version that does not exist
		}
		var ar appendReply
		if err := json.Unmarshal(rep.body, &ar); err != nil || ar.Corpus.Version != v+1 {
			tl.failf("append %d: version %d after %d (%v)", seq, ar.Corpus.Version, v, err)
			return false
		}
		tl.succeed(t)
		tl.write(rep.dur)
		w := liveWrite{body: bodyRecord{key: appendPath(v), digest: digest(rep.body)}}
		for i := 0; i < readBack; i++ {
			readOne(c, t, tl, liveReadPath("mine", randx.Choice(rng, in.regions), v+1), v+1)
		}
		st.version.Store(int64(v + 1))
		for _, old := range st.retire(v + 1) {
			tl.attempted++
			rep, err := t.call(http.MethodDelete, deletePath(old), nil, nil)
			if err != nil || rep.status != http.StatusOK {
				tl.failf("delete %s@%d: status %d, %v", liveName, old, rep.status, err)
				return false
			}
			tl.succeed(t)
			w.deleted = append(w.deleted, old)
		}
		writes = append(writes, w)
		return true
	})
	if err != nil {
		return nil, err
	}
	if err := p.report(o, setup, rc.relaxTail); err != nil {
		return nil, err
	}
	// wall_s is the writer's write-then-read-back cycle; the readers'
	// two-request tasks are not what a user of this workload waits for.
	w := p.clients[0]
	o.e2e["wall_s"] = median(windowMedians(w.taskAt, w.tasks, p.elapsed))
	// The append tail is a layer figure: with fewer than 100 appends it is
	// left at 0 rather than failing the run.
	p50 := median(p.tally.writes)
	o.layers["server.append_p50_ms"], o.detail["append_p50_ms"] = p50, p50
	if p90, err := tail(p.tally.writes, 0.90, rc.relaxTail); err == nil {
		o.layers["server.append_p90_ms"], o.detail["append_p90_ms"] = p90, p90
	}
	o.detail["final_version"] = float64(st.version.Load())

	var all []liveRead
	for _, rs := range reads {
		all = append(all, rs...)
	}
	if err := checkLive(rc, r.corpus, in, writes, all, o); err != nil {
		return nil, err
	}
	if rc.tr != nil {
		if err := p.traceReport(o, rc.tr); err != nil {
			return nil, err
		}
		if err := probeLive(rc, r.corpus, in, o); err != nil {
			return nil, err
		}
	}
	finish(o)
	return o, nil
}

// checkLive rebuilds the run's version history on a fresh single node —
// the same upload, then the same appends in order — and after each
// append replays, serially, every read the run made of that version.
func checkLive(rc *runConfig, corpus *recipe.Corpus, in *liveInputs, writes []liveWrite, reads []liveRead, o *outcome) error {
	start := time.Now()
	ref, err := server.New(baseOptions(rc, corpus))
	if err != nil {
		return err
	}
	h := ref.Handler()
	byVersion := map[int][]bodyRecord{}
	for _, r := range reads {
		byVersion[r.version] = append(byVersion[r.version], r.body)
	}
	replay := func(version int) {
		recs := byVersion[version]
		var paths []string
		seen := map[string]bool{}
		for _, b := range recs {
			if !seen[b.key] {
				seen[b.key] = true
				paths = append(paths, b.key)
			}
		}
		want := loadtest.Baseline(h, loadtest.Mix{Seed: rc.seed, Paths: paths})
		for _, b := range recs {
			if w, ok := want[b.key]; !ok || digest([]byte(w)) != b.digest {
				o.fail("%s: body differs from the single-node replay", b.key)
			}
		}
	}
	if code, _ := send(h, http.MethodPost, uploadPath(), in.base, nil); code != http.StatusCreated {
		return fmt.Errorf("replay upload: status %d", code)
	}
	replay(1)
	for i, w := range writes {
		code, body := send(h, http.MethodPost, appendPath(i+1), in.batches[i%len(in.batches)], nil)
		if code != http.StatusCreated || digest(body) != w.body.digest {
			o.fail("%s: append response differs from the single-node replay", w.body.key)
		}
		replay(i + 2)
		for _, old := range w.deleted {
			if code, _ := send(h, http.MethodDelete, deletePath(old), nil, nil); code != http.StatusOK {
				return fmt.Errorf("replay delete: status %d", code)
			}
		}
	}
	o.detail["baseline_s"] = time.Since(start).Seconds()
	o.detail["checked_bodies"] = float64(len(reads) + len(writes))
	return nil
}

// send makes one in-process request and returns status and body.
func send(h http.Handler, method, path string, body []byte, hdr http.Header) (int, []byte) {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	for k, vs := range hdr {
		req.Header[k] = vs
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// probeLive re-times the append path layer by layer on the run's first
// payloads, against a registry and a live index of its own:
// corpusstore.Append, Registry.Register and Registry.Resolve; then
// LiveIndex.Append of the delta and Snapshot; then BuildIndex of one
// region of the new version, which is what a read after an append pays.
func probeLive(rc *runConfig, corpus *recipe.Corpus, in *liveInputs, o *outcome) error {
	lex := corpus.Lexicon()
	reg, err := corpusstore.NewRegistry(corpusstore.NewMemStore(0), lex)
	if err != nil {
		return err
	}
	opts := corpusstore.ImportOptions{Format: corpusstore.FormatJSONL, Ingest: ingest.Options{Lexicon: lex}}
	base, err := corpusstore.Import(bytes.NewReader(in.base), opts)
	if err != nil {
		return err
	}
	if _, err := reg.Register(liveName, base.Corpus); err != nil {
		return err
	}
	li := itemset.NewLiveIndex()
	if _, err := li.Append(base.Corpus.AllView().Transactions()); err != nil {
		return err
	}
	tr := rc.tr
	parent := base.Corpus
	var appendMS, registerMS, resolveUS, liveAppendUS, snapshotMS, buildMS []float64
	for i := 0; i < liveProbes; i++ {
		root := tr.newID()
		start := time.Now()
		var res *corpusstore.Result
		var info corpusstore.Info
		var ferr error
		appendMS = append(appendMS, ms(tr.timed("corpusstore.append", root, root, func() {
			res, ferr = corpusstore.Append(parent, bytes.NewReader(in.batches[i%len(in.batches)]), opts)
		})))
		if ferr != nil {
			return ferr
		}
		registerMS = append(registerMS, ms(tr.timed("corpusstore.register", root, root, func() {
			info, ferr = reg.Register(liveName, res.Corpus)
		})))
		if ferr != nil {
			return ferr
		}
		resolveUS = append(resolveUS, us(tr.timed("corpusstore.resolve", root, root, func() {
			_, _, ferr = reg.Resolve(liveName + "@" + strconv.Itoa(info.Version))
		})))
		if ferr != nil {
			return ferr
		}
		delta := res.Corpus.TailView(parent.Len()).Transactions()
		liveAppendUS = append(liveAppendUS, us(tr.timed("itemset.live_append", root, root, func() {
			_, ferr = li.Append(delta)
		})))
		if ferr != nil {
			return ferr
		}
		snapshotMS = append(snapshotMS, ms(tr.timed("itemset.live_snapshot", root, root, func() { li.Snapshot() })))
		region := in.regions[i%len(in.regions)]
		buildMS = append(buildMS, ms(tr.timed("itemset.index_build", root, root, func() {
			_, ferr = itemset.BuildIndex(res.Corpus.Region(region).Transactions())
		})))
		if ferr != nil {
			return ferr
		}
		tr.record(root, 0, root, "probe.append", start, time.Now())
		parent = res.Corpus
	}
	o.layers["corpusstore.append_ms"] = mean(appendMS)
	o.layers["corpusstore.register_ms"] = mean(registerMS)
	o.layers["corpusstore.resolve_us"] = mean(resolveUS)
	o.layers["itemset.live_append_us"] = mean(liveAppendUS)
	o.layers["itemset.live_snapshot_ms"] = mean(snapshotMS)
	o.layers["itemset.index_build_ms"] = mean(buildMS)
	return nil
}
