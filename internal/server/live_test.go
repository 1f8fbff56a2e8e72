package server

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"cuisinevol/internal/corpusstore"
	"cuisinevol/internal/ingredient"
	"cuisinevol/internal/itemset"
)

// appendJSONL is the delta streamed onto uploadJSONL's corpus by the
// append tests: two more records touching both of its regions.
const appendJSONL = `{"title":"Arrabbiata","region":"ITA","ingredients":["tomato","garlic","olive oil"]}
{"title":"Japchae","region":"KOR","ingredients":["sesame oil","garlic","rice"]}
`

// appendRespBody mirrors the POST /v1/corpora/{id}/append response.
type appendRespBody struct {
	Corpus corpusRow `json:"corpus"`
	Parent corpusRow `json:"parent"`
	Stats  struct {
		RawRecords int `json:"raw_records"`
		Accepted   int `json:"accepted"`
	} `json:"stats"`
	Skipped int `json:"skipped_records"`
	Index   struct {
		Incremental bool   `json:"incremental"`
		Epoch       uint64 `json:"epoch"`
		AppendedTx  int    `json:"appended_transactions"`
	} `json:"index"`
}

// cachedIndex fetches the index cache entry for key, failing the test
// if the entry is absent (the build callback must never fire).
func cachedIndex(t *testing.T, srv *Server, key string) *itemset.Index {
	t.Helper()
	ix, err := srv.indexes.Get(context.Background(), key, func() ([][]ingredient.ID, error) {
		t.Fatalf("index %s was not pre-cached: build callback invoked", key)
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// TestCorpusAppendIncremental drives the incremental path end to end:
// upload → append (seeds the live head) → append again (O(delta)),
// asserting each child version's whole-corpus index lands in the
// IndexCache pre-built and byte-identical to a from-scratch build, and
// that the first analytics query against the child finds it warm.
func TestCorpusAppendIncremental(t *testing.T) {
	srv, ts := newTestServer(t)

	var up uploadBody
	if resp := doJSON(t, ts, http.MethodPost, "/v1/corpora?name=grow", uploadJSONL, &up); resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload: %d", resp.StatusCode)
	}

	// First append: no head is warm for this lineage, so it seeds O(n)
	// and reports incremental=false.
	var ap1 appendRespBody
	if resp := doJSON(t, ts, http.MethodPost, "/v1/corpora/grow/append", appendJSONL, &ap1); resp.StatusCode != http.StatusCreated {
		t.Fatalf("first append: %d", resp.StatusCode)
	}
	if ap1.Corpus.Ref != "grow@2" || ap1.Parent.Ref != "grow@1" {
		t.Fatalf("append versions = %s from %s (want grow@2 from grow@1)", ap1.Corpus.Ref, ap1.Parent.Ref)
	}
	if ap1.Corpus.Recipes != 6 || ap1.Stats.Accepted != 2 || ap1.Index.AppendedTx != 2 {
		t.Fatalf("append accounting = %+v", ap1)
	}
	if ap1.Index.Incremental {
		t.Fatal("first append along a lineage reported incremental=true (no head could be warm)")
	}
	if ap1.Index.Epoch == 0 {
		t.Fatal("append reported epoch 0")
	}
	if ap1.Corpus.ID == ap1.Parent.ID {
		t.Fatal("child shares the parent fingerprint")
	}

	// Second append rides the head re-keyed under grow@2: incremental.
	var ap2 appendRespBody
	if resp := doJSON(t, ts, http.MethodPost, "/v1/corpora/grow/append", appendJSONL, &ap2); resp.StatusCode != http.StatusCreated {
		t.Fatalf("second append: %d", resp.StatusCode)
	}
	if ap2.Corpus.Ref != "grow@3" || !ap2.Index.Incremental {
		t.Fatalf("second append = ref %s incremental %v (want grow@3, true)", ap2.Corpus.Ref, ap2.Index.Incremental)
	}
	if ap2.Index.Epoch <= ap1.Index.Epoch {
		t.Fatalf("epoch did not advance: %d -> %d", ap1.Index.Epoch, ap2.Index.Epoch)
	}

	// Both children's whole-corpus indexes are pre-cached, and each is
	// byte-identical (fingerprint) to a from-scratch build over the
	// registered corpus — the snapshot contract, observed at the server.
	for _, ref := range []string{"grow@2", "grow@3"} {
		corpus, info, err := srv.registry.Resolve(ref)
		if err != nil {
			t.Fatal(err)
		}
		ix := cachedIndex(t, srv, itemset.IndexKey(info.ID, "", false))
		want, err := itemset.BuildIndex(corpus.AllView().Transactions())
		if err != nil {
			t.Fatal(err)
		}
		if ix.Fingerprint() != want.Fingerprint() {
			t.Fatalf("%s: cached snapshot fingerprint %s != from-scratch build %s",
				ref, ix.Fingerprint(), want.Fingerprint())
		}
		if ix.N() != corpus.Len() {
			t.Fatalf("%s: snapshot N %d != corpus %d", ref, ix.N(), corpus.Len())
		}
	}

	// The first query needing the child's aggregate index finds it warm:
	// overrep builds only the region slice, and hits the cached aggregate.
	before := srv.indexes.Stats()
	if resp, body := get(t, ts, "/v1/overrep?corpus=grow@3&region=KOR&k=3"); resp.StatusCode != http.StatusOK {
		t.Fatalf("overrep against appended corpus: %d %s", resp.StatusCode, body)
	}
	after := srv.indexes.Stats()
	if after.Builds != before.Builds+1 {
		t.Errorf("overrep built %d indexes (want 1: the region slice only)", after.Builds-before.Builds)
	}
	if after.Hits != before.Hits+1 {
		t.Errorf("overrep recorded %d hits (want 1: the pre-cached aggregate)", after.Hits-before.Hits)
	}

	// The parent versions are untouched and still servable.
	for _, ref := range []string{"grow@1", "grow@2"} {
		if resp, body := get(t, ts, "/v1/mine?corpus="+ref+"&region=ITA&support=0.5"); resp.StatusCode != http.StatusOK {
			t.Fatalf("mine against %s after appends: %d %s", ref, resp.StatusCode, body)
		}
	}

	// Live metrics tell the same story: one seed, two appends.
	_, metrics := get(t, ts, "/metrics")
	for _, line := range []string{
		"cuisinevol_live_appends_total 2",
		"cuisinevol_live_seeds_total 1",
		"cuisinevol_live_appended_tx_total 4",
		"cuisinevol_live_snapshots_total 2",
		"cuisinevol_live_heads 1",
	} {
		if !strings.Contains(string(metrics), line) {
			t.Errorf("metrics missing %q", line)
		}
	}
}

// TestCorpusAppendErrors pins the append endpoint's failure modes.
func TestCorpusAppendErrors(t *testing.T) {
	_, ts := newTestServer(t)
	// Unknown parent.
	if resp := doJSON(t, ts, http.MethodPost, "/v1/corpora/ghost/append", appendJSONL, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("append to unknown corpus: %d, want 404", resp.StatusCode)
	}
	// Syntactically invalid parent reference.
	if resp := doJSON(t, ts, http.MethodPost, "/v1/corpora/-bad-/append", appendJSONL, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("append to invalid ref: %d, want 400", resp.StatusCode)
	}
	if resp := doJSON(t, ts, http.MethodPost, "/v1/corpora?name=base", uploadJSONL, nil); resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload: %d", resp.StatusCode)
	}
	// Unknown format parameter.
	if resp := doJSON(t, ts, http.MethodPost, "/v1/corpora/base/append?format=xml", appendJSONL, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("append with bad format: %d, want 400", resp.StatusCode)
	}
	// Nothing accepted: no new version is minted.
	if resp := doJSON(t, ts, http.MethodPost, "/v1/corpora/base/append", `{"region":"","ingredients":[]}`+"\n", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty append: %d, want 400", resp.StatusCode)
	}
	if resp, _ := get(t, ts, "/v1/mine?corpus=base@2&region=ITA"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("failed append minted a version: base@2 resolves")
	}
}

// TestCorpusDeleteInvalidatesIndexes is the cache-coherence regression
// test: deleting a corpus must drop its fingerprint-keyed index entries
// eagerly (not wait for byte-pressure eviction), must never touch other
// corpora's entries, and must leave in-flight snapshots usable — an
// *Index already held by a query keeps mining deterministically.
func TestCorpusDeleteInvalidatesIndexes(t *testing.T) {
	srv, ts := newTestServer(t)

	var up uploadBody
	if resp := doJSON(t, ts, http.MethodPost, "/v1/corpora?name=doomed", uploadJSONL, &up); resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload: %d", resp.StatusCode)
	}

	// Build one default-corpus entry and three for the upload (ITA and
	// KOR slices plus the aggregate overrep touches).
	if resp, _ := get(t, ts, "/v1/mine?region=ITA&support=0.3"); resp.StatusCode != http.StatusOK {
		t.Fatal("default mine failed")
	}
	if resp, _ := get(t, ts, "/v1/mine?corpus=doomed&region=ITA&support=0.5"); resp.StatusCode != http.StatusOK {
		t.Fatal("uploaded mine failed")
	}
	if resp, _ := get(t, ts, "/v1/overrep?corpus=doomed&region=KOR&k=3"); resp.StatusCode != http.StatusOK {
		t.Fatal("uploaded overrep failed")
	}
	before := srv.indexes.Stats()
	if before.Entries != 4 {
		t.Fatalf("entries before delete = %d (want 4: default ITA + uploaded ITA/KOR/aggregate)", before.Entries)
	}

	// Pin the aggregate snapshot like an in-flight query would.
	held := cachedIndex(t, srv, itemset.IndexKey(up.Corpus.ID, "", false))
	heldFP := held.Fingerprint()

	var del struct {
		Deleted     corpusRow `json:"deleted"`
		Invalidated int       `json:"invalidated_indexes"`
	}
	if resp := doJSON(t, ts, http.MethodDelete, "/v1/corpora/doomed", "", &del); resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: %d", resp.StatusCode)
	}
	if del.Invalidated != 3 {
		t.Fatalf("invalidated %d index entries (want 3)", del.Invalidated)
	}

	after := srv.indexes.Stats()
	if after.Entries != 1 {
		t.Fatalf("entries after delete = %d (want 1: the default corpus's survives)", after.Entries)
	}
	if after.Invalidations != 3 {
		t.Fatalf("invalidation counter = %d (want 3)", after.Invalidations)
	}

	// The default corpus's entry genuinely survived: a new support point
	// against the same view is an index hit, not a rebuild.
	if resp, _ := get(t, ts, "/v1/mine?region=ITA&support=0.35"); resp.StatusCode != http.StatusOK {
		t.Fatal("default mine after delete failed")
	}
	if final := srv.indexes.Stats(); final.Builds != after.Builds {
		t.Errorf("default-corpus index was rebuilt after an unrelated delete: builds %d -> %d",
			after.Builds, final.Builds)
	}

	// The pinned snapshot is untouched by invalidation: same fingerprint,
	// still mines.
	if held.Fingerprint() != heldFP {
		t.Fatal("held index fingerprint changed across invalidation")
	}
	if _, err := itemset.MineIndexed(held, 0.5, itemset.MineOptions{}); err != nil {
		t.Fatalf("held index no longer mines: %v", err)
	}

	if _, body := get(t, ts, "/metrics"); !strings.Contains(string(body), "cuisinevol_index_invalidations_total 3") {
		t.Error("metrics missing the invalidation count")
	}
}

// TestCorpusErrorMapping pins every typed corpusstore failure to its
// HTTP status and JSON error shape (the contract corpora.go documents):
// ErrNotFound→404, ErrBadName/ErrBadRef→400, ErrNameTaken→409,
// ErrTooLarge→413, ErrCorrupt→500 — across the management verbs, the
// append endpoint, and corpus= on the analytics endpoints.
func TestCorpusErrorMapping(t *testing.T) {
	// Standard server, with one corpus registered so ErrNameTaken has
	// content to conflict with.
	_, ts := newTestServer(t)
	if resp := doJSON(t, ts, http.MethodPost, "/v1/corpora?name=claimed", uploadJSONL, nil); resp.StatusCode != http.StatusCreated {
		t.Fatalf("setup upload: %d", resp.StatusCode)
	}

	// A server whose upload budget is 16 bytes: every real body trips
	// ErrTooLarge in the importer.
	tiny, err := New(Options{Seed: 42, Replicates: 2, Compute: 4,
		Corpus: testCorpus(t), MaxUploadBytes: 16})
	if err != nil {
		t.Fatal(err)
	}
	tsTiny := httptest.NewServer(tiny.Handler())
	t.Cleanup(tsTiny.Close)

	// A server whose registry holds a corpus that fails verification on
	// load: garbage bytes stored under a syntactically valid fingerprint
	// with a name binding. Resolving it is ErrCorrupt — server-side data
	// damage, never the client's fault.
	store := corpusstore.NewMemStore(0)
	if err := store.Put(corpusstore.Info{
		ID:      strings.Repeat("ab", 16),
		Name:    "rotten",
		Version: 1,
		Recipes: 1,
		Regions: 1,
	}, []byte("this is not a serialized corpus\n")); err != nil {
		t.Fatal(err)
	}
	reg, err := corpusstore.NewRegistry(store, testCorpus(t).Lexicon())
	if err != nil {
		t.Fatal(err)
	}
	rotten, err := New(Options{Seed: 42, Replicates: 2, Compute: 4,
		Corpus: testCorpus(t), Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	tsRotten := httptest.NewServer(rotten.Handler())
	t.Cleanup(tsRotten.Close)

	for _, tc := range []struct {
		name   string
		ts     *httptest.Server
		method string
		path   string
		body   string
		want   int
	}{
		// ErrNotFound → 404 on every verb that resolves a reference.
		{"notfound/delete", ts, http.MethodDelete, "/v1/corpora/ghost", "", http.StatusNotFound},
		{"notfound/append", ts, http.MethodPost, "/v1/corpora/ghost/append", appendJSONL, http.StatusNotFound},
		{"notfound/mine", ts, http.MethodGet, "/v1/mine?corpus=ghost&region=ITA", "", http.StatusNotFound},
		{"notfound/fig3", ts, http.MethodGet, "/v1/fig3?corpus=ghost", "", http.StatusNotFound},
		{"notfound/version", ts, http.MethodGet, "/v1/mine?corpus=claimed@9&region=ITA", "", http.StatusNotFound},
		// ErrBadRef → 400: syntactically invalid references.
		{"badref/mine", ts, http.MethodGet, "/v1/mine?corpus=-bad-&region=ITA", "", http.StatusBadRequest},
		{"badref/overrep", ts, http.MethodGet, "/v1/overrep?corpus=claimed@zero&region=ITA&k=3", "", http.StatusBadRequest},
		{"badref/delete", ts, http.MethodDelete, "/v1/corpora/@@", "", http.StatusBadRequest},
		{"badref/append", ts, http.MethodPost, "/v1/corpora/-bad-/append", appendJSONL, http.StatusBadRequest},
		// ErrBadName → 400: invalid registration names, including the
		// one reserved shape (a name that looks like a fingerprint).
		{"badname/upper", ts, http.MethodPost, "/v1/corpora?name=UPPER", uploadJSONL, http.StatusBadRequest},
		{"badname/hexlike", ts, http.MethodPost, "/v1/corpora?name=" + strings.Repeat("0", 32), uploadJSONL, http.StatusBadRequest},
		// ErrNameTaken → 409: same content under a different name.
		{"nametaken/upload", ts, http.MethodPost, "/v1/corpora?name=other", uploadJSONL, http.StatusConflict},
		// ErrTooLarge → 413: body exceeds the configured upload budget.
		{"toolarge/upload", tsTiny, http.MethodPost, "/v1/corpora?name=big", uploadJSONL, http.StatusRequestEntityTooLarge},
		// ErrCorrupt → 500: stored bytes fail verification on load,
		// surfaced identically through corpus= on analytics endpoints.
		{"corrupt/mine", tsRotten, http.MethodGet, "/v1/mine?corpus=rotten&region=ITA", "", http.StatusInternalServerError},
		{"corrupt/overrep", tsRotten, http.MethodGet, "/v1/overrep?corpus=rotten&region=ITA&k=3", "", http.StatusInternalServerError},
		{"corrupt/byid", tsRotten, http.MethodGet, "/v1/cuisines?corpus=" + strings.Repeat("ab", 16), "", http.StatusInternalServerError},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var e struct {
				Error string `json:"error"`
			}
			resp := doJSON(t, tc.ts, tc.method, tc.path, tc.body, &e)
			if resp.StatusCode != tc.want {
				t.Fatalf("%s %s: status %d (want %d), error %q", tc.method, tc.path, resp.StatusCode, tc.want, e.Error)
			}
			if e.Error == "" {
				t.Fatalf("%s %s: missing structured error body", tc.method, tc.path)
			}
		})
	}
}

// TestLiveHeadEvictionPolicy pins maxLiveHeads: the server keeps at most
// that many warm write heads and drops the least recently advanced
// lineage first, so the next append to that lineage re-seeds while the
// newest lineage stays incremental.
func TestLiveHeadEvictionPolicy(t *testing.T) {
	_, ts := newTestServer(t)
	appendTo := func(name string) appendRespBody {
		t.Helper()
		var ap appendRespBody
		if resp := doJSON(t, ts, http.MethodPost, "/v1/corpora/"+name+"/append", appendJSONL, &ap); resp.StatusCode != http.StatusCreated {
			t.Fatalf("append to %s: %d", name, resp.StatusCode)
		}
		return ap
	}
	gauge := func(name string) uint64 {
		t.Helper()
		_, body := get(t, ts, "/metrics")
		for _, line := range strings.Split(string(body), "\n") {
			if v, ok := strings.CutPrefix(line, name+" "); ok {
				n, err := strconv.ParseUint(v, 10, 64)
				if err != nil {
					t.Fatalf("%s: %v", line, err)
				}
				return n
			}
		}
		t.Fatalf("metrics missing %s", name)
		return 0
	}

	// Distinct content per lineage: i extra copies of one record.
	const extra = `{"title":"Bruschetta","region":"ITA","ingredients":["tomato","garlic"]}` + "\n"
	names := make([]string, maxLiveHeads+1)
	for i := range names {
		names[i] = fmt.Sprintf("lineage-%d", i)
		body := uploadJSONL + strings.Repeat(extra, i)
		if resp := doJSON(t, ts, http.MethodPost, "/v1/corpora?name="+names[i], body, nil); resp.StatusCode != http.StatusCreated {
			t.Fatalf("upload %s: %d", names[i], resp.StatusCode)
		}
		if ap := appendTo(names[i]); ap.Index.Incremental {
			t.Fatalf("first append to %s reported incremental=true", names[i])
		}
	}
	if got := gauge("cuisinevol_live_heads"); got != maxLiveHeads {
		t.Fatalf("cuisinevol_live_heads = %d after %d lineages, want %d", got, len(names), maxLiveHeads)
	}

	seeds := gauge("cuisinevol_live_seeds_total")
	if ap := appendTo(names[0]); ap.Index.Incremental {
		t.Fatal("append to the evicted oldest lineage reported incremental=true")
	}
	if got := gauge("cuisinevol_live_seeds_total"); got != seeds+1 {
		t.Fatalf("cuisinevol_live_seeds_total = %d after re-seeding, want %d", got, seeds+1)
	}
	if ap := appendTo(names[len(names)-1]); !ap.Index.Incremental {
		t.Fatal("append to the newest lineage re-seeded (its head was evicted)")
	}
	if got := gauge("cuisinevol_live_heads"); got != maxLiveHeads {
		t.Fatalf("cuisinevol_live_heads = %d, want %d", got, maxLiveHeads)
	}
}
