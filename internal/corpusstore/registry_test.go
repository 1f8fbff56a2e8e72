package corpusstore

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cuisinevol/internal/flight"
	"cuisinevol/internal/ingest"
	"cuisinevol/internal/recipe"
)

// testCorpus builds a small resolvable corpus; vary seasoning to vary
// the fingerprint.
func testCorpus(t *testing.T, seasoning string) *recipe.Corpus {
	t.Helper()
	corpus, _, err := ingest.Ingest([]ingest.RawRecipe{
		{Region: "ITA", Ingredients: []string{"tomato", "basil", seasoning}},
		{Region: "KOR", Ingredients: []string{"rice", "garlic", seasoning}},
	}, ingest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return corpus
}

func TestRegistryRegisterResolveDelete(t *testing.T) {
	reg, err := NewRegistry(NewMemStore(0), nil)
	if err != nil {
		t.Fatal(err)
	}
	c1 := testCorpus(t, "oregano")
	info, err := reg.Register("kitchen", c1)
	if err != nil {
		t.Fatal(err)
	}
	if info.Ref() != "kitchen@1" || info.ID != c1.Fingerprint() {
		t.Fatalf("first Register = %+v", info)
	}
	if info.Recipes != c1.Len() {
		t.Fatalf("Recipes = %d, want %d", info.Recipes, c1.Len())
	}

	// Same content, same name: idempotent, no new version.
	again, err := reg.Register("kitchen", c1)
	if err != nil || again.Ref() != "kitchen@1" {
		t.Fatalf("idempotent Register = (%+v, %v)", again, err)
	}
	// Same content, different name: conflict.
	if _, err := reg.Register("other", c1); !errors.Is(err, ErrNameTaken) {
		t.Fatalf("cross-name Register = %v, want ErrNameTaken", err)
	}
	// New content under the same name: next version.
	c2 := testCorpus(t, "cumin")
	v2, err := reg.Register("kitchen", c2)
	if err != nil || v2.Ref() != "kitchen@2" {
		t.Fatalf("second version = (%+v, %v)", v2, err)
	}

	// Resolution: bare name = latest, @N = pinned, raw fingerprint works.
	for ref, want := range map[string]string{
		"kitchen":        c2.Fingerprint(),
		"kitchen@1":      c1.Fingerprint(),
		"kitchen@2":      c2.Fingerprint(),
		c1.Fingerprint(): c1.Fingerprint(),
	} {
		got, _, err := reg.Resolve(ref)
		if err != nil {
			t.Fatalf("Resolve(%q): %v", ref, err)
		}
		if got.Fingerprint() != want {
			t.Fatalf("Resolve(%q) = %s, want %s", ref, got.Fingerprint(), want)
		}
	}
	for _, ref := range []string{"kitchen@3", "nope", testID('0')} {
		if _, _, err := reg.Resolve(ref); !errors.Is(err, ErrNotFound) {
			t.Fatalf("Resolve(%q) = %v, want ErrNotFound", ref, err)
		}
	}

	// Delete v1; v2 remains the latest.
	if _, err := reg.Delete("kitchen@1"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := reg.Resolve("kitchen@1"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Resolve of deleted version = %v", err)
	}
	if got, _, err := reg.Resolve("kitchen"); err != nil || got.Fingerprint() != c2.Fingerprint() {
		t.Fatalf("latest after delete = (%v, %v)", got, err)
	}

	stats := reg.Stats()
	if stats.Puts != 2 || stats.Deletes != 1 || stats.StoreEntries != 1 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestRegistryRebuildsFromStore(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFS(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := NewRegistry(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := testCorpus(t, "saffron")
	if _, err := reg.Register("durable", c); err != nil {
		t.Fatal(err)
	}

	// Simulated restart: fresh store handle, fresh registry, cold memo.
	s2, err := OpenFS(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	reg2, err := NewRegistry(s2, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, info, err := reg2.Resolve("durable")
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint() != c.Fingerprint() || info.Ref() != "durable@1" {
		t.Fatalf("restart-warm Resolve = (%s, %+v)", got.Fingerprint(), info)
	}
	if stats := reg2.Stats(); stats.Loads != 1 || stats.LoadedEntries != 1 {
		t.Fatalf("restart stats = %+v", stats)
	}
}

func TestRegistryDetectsCorruptLoad(t *testing.T) {
	s := NewMemStore(0)
	reg, err := NewRegistry(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := testCorpus(t, "paprika")
	// Store valid corpus bytes under the WRONG content ID, bypassing
	// Register, then resolve by that ID: the fingerprint check must trip.
	var buf = &writerBuffer{}
	if err := c.WriteJSONL(buf); err != nil {
		t.Fatal(err)
	}
	wrong := testID('e')
	if err := s.Put(Info{ID: wrong, Name: "evil", Version: 1}, buf.data); err != nil {
		t.Fatal(err)
	}
	if _, _, err := reg.Resolve(wrong); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Resolve of mislabeled content = %v, want ErrCorrupt", err)
	}
	if stats := reg.Stats(); stats.LoadedEntries != 0 {
		t.Fatal("corrupt load was memoized")
	}
}

type writerBuffer struct{ data []byte }

func (w *writerBuffer) Write(p []byte) (int, error) {
	w.data = append(w.data, p...)
	return len(p), nil
}

// countingStore wraps a Store and counts Get calls, so tests can assert
// the singleflight contract: one load per fingerprint no matter how many
// concurrent Resolves race for it.
type countingStore struct {
	Store
	gets atomic.Int64
}

func (s *countingStore) Get(id string) ([]byte, Info, error) {
	s.gets.Add(1)
	return s.Store.Get(id)
}

// TestRegistrySingleflightLoad pins the tentpole's concurrency contract
// (run under -race in CI): N goroutines resolving a cold corpus trigger
// exactly one store read, and a corpus resolved before deletion stays
// usable after it.
func TestRegistrySingleflightLoad(t *testing.T) {
	mem := NewMemStore(0)
	seed, err := NewRegistry(mem, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := testCorpus(t, "thyme")
	if _, err := seed.Register("flight", c); err != nil {
		t.Fatal(err)
	}

	// Fresh registry over a counting wrapper: the memo is cold, so the
	// first Resolve wave has to load from the store.
	cs := &countingStore{Store: mem}
	reg, err := NewRegistry(cs, nil)
	if err != nil {
		t.Fatal(err)
	}

	const n = 32
	var (
		start   = make(chan struct{})
		wg      sync.WaitGroup
		results [n]*recipe.Corpus
		errs    [n]error
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			results[i], _, errs[i] = reg.Resolve("flight")
		}(i)
	}
	close(start)
	wg.Wait()

	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if results[i] != results[0] {
			t.Fatal("concurrent Resolves returned distinct corpus values")
		}
	}
	if got := cs.gets.Load(); got != 1 {
		t.Fatalf("store Gets = %d, want exactly 1 (singleflight)", got)
	}
	stats := reg.Stats()
	if stats.Loads != 1 {
		t.Fatalf("stats.Loads = %d, want 1", stats.Loads)
	}
	if stats.LoadHits+stats.LoadMisses != n {
		t.Fatalf("hits %d + misses %d != %d resolves", stats.LoadHits, stats.LoadMisses, n)
	}

	// Deletion never invalidates a pinned corpus: the resolved value
	// keeps working after Delete, while new Resolves see ErrNotFound.
	pinned := results[0]
	if _, err := reg.Delete("flight"); err != nil {
		t.Fatal(err)
	}
	if pinned.Len() != c.Len() || pinned.Fingerprint() != c.Fingerprint() {
		t.Fatal("pinned corpus unusable after delete")
	}
	if _, _, err := reg.Resolve("flight"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Resolve after delete = %v, want ErrNotFound", err)
	}
}

// TestRegistryConcurrentChurn hammers register/resolve/delete from many
// goroutines; -race is the assertion.
func TestRegistryConcurrentChurn(t *testing.T) {
	reg, err := NewRegistry(NewMemStore(0), nil)
	if err != nil {
		t.Fatal(err)
	}
	seasonings := []string{"oregano", "cumin", "thyme", "saffron"}
	corpora := make([]*recipe.Corpus, len(seasonings))
	for i, s := range seasonings {
		corpora[i] = testCorpus(t, s)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := fmt.Sprintf("churn-%d", g%4)
			c := corpora[g%4]
			for iter := 0; iter < 25; iter++ {
				info, err := reg.Register(name, c)
				if err != nil && !errors.Is(err, ErrNameTaken) {
					t.Errorf("Register: %v", err)
					return
				}
				if err == nil {
					if got, _, rerr := reg.Resolve(info.ID); rerr == nil {
						_ = got.Len()
					}
				}
				_, _, _ = reg.Resolve(name)
				_, _ = reg.Delete(name)
			}
		}(g)
	}
	wg.Wait()
}

// hookStore wraps a Store and runs onGet after each successful inner
// Get, so a test can panic inside a load or hold it mid-flight.
type hookStore struct {
	Store
	onGet func()
}

func (s *hookStore) Get(id string) ([]byte, Info, error) {
	data, info, err := s.Store.Get(id)
	if err == nil && s.onGet != nil {
		s.onGet()
	}
	return data, info, err
}

// coldRegistry registers a corpus in a shared MemStore, then opens a
// second registry over hs wrapping it, so the first Resolve must load.
func coldRegistry(t *testing.T, hs *hookStore) (*Registry, Info) {
	t.Helper()
	mem := NewMemStore(0)
	seed, err := NewRegistry(mem, nil)
	if err != nil {
		t.Fatal(err)
	}
	info, err := seed.Register("cold", testCorpus(t, "sumac"))
	if err != nil {
		t.Fatal(err)
	}
	hs.Store = mem
	reg, err := NewRegistry(hs, nil)
	if err != nil {
		t.Fatal(err)
	}
	return reg, info
}

type resolved struct {
	corpus *recipe.Corpus
	err    error
}

// resolveAsync runs one ResolveCtx on its own goroutine; a panic
// escaping it is reported as an error instead of killing the test.
func resolveAsync(ctx context.Context, reg *Registry, ref string) <-chan resolved {
	got := make(chan resolved, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				got <- resolved{err: fmt.Errorf("Resolve panicked: %v", r)}
			}
		}()
		c, _, err := reg.ResolveCtx(ctx, ref)
		got <- resolved{c, err}
	}()
	return got
}

// within waits at most 2 s for a resolve, so a poisoned key fails the
// test instead of hanging the suite.
func within(t *testing.T, got <-chan resolved) resolved {
	t.Helper()
	select {
	case r := <-got:
		return r
	case <-time.After(2 * time.Second):
		t.Fatal("Resolve still blocked after 2s")
		return resolved{}
	}
}

// TestRegistryPanickingLoadFreesKey: a store whose Get panics fails
// that Resolve with a *flight.PanicError, and the next Resolve returns
// and loads instead of waiting on a load that never ends.
func TestRegistryPanickingLoadFreesKey(t *testing.T) {
	var panics atomic.Int32
	hs := &hookStore{onGet: func() {
		if panics.Add(1) == 1 {
			panic("store exploded")
		}
	}}
	reg, info := coldRegistry(t, hs)
	r := within(t, resolveAsync(context.Background(), reg, info.ID))
	var pe *flight.PanicError
	if !errors.As(r.err, &pe) || pe.Value != "store exploded" {
		t.Fatalf("panicking load: err = %v, want *flight.PanicError", r.err)
	}
	r = within(t, resolveAsync(context.Background(), reg, info.ID))
	if r.err != nil || r.corpus == nil || r.corpus.Fingerprint() != info.ID {
		t.Fatalf("Resolve after a panicked load: err = %v", r.err)
	}
	if st := reg.Stats(); st.Loads != 2 || st.LoadedEntries != 1 {
		t.Fatalf("stats = %+v, want loads=2 loadedEntries=1", st)
	}
}

// TestRegistryDeleteDuringLoadDoesNotMemoize: a corpus deleted while
// its load is in flight must not be memoized when the load completes,
// or it would still resolve by fingerprint after the delete.
func TestRegistryDeleteDuringLoadDoesNotMemoize(t *testing.T) {
	loading := make(chan struct{})
	gate := make(chan struct{})
	var once sync.Once
	hs := &hookStore{onGet: func() {
		once.Do(func() { close(loading) })
		<-gate
	}}
	reg, info := coldRegistry(t, hs)
	inFlight := resolveAsync(context.Background(), reg, info.ID)
	<-loading
	if _, err := reg.Delete(info.ID); err != nil {
		t.Fatal(err)
	}
	close(gate)
	if r := within(t, inFlight); r.err != nil || r.corpus == nil {
		t.Fatalf("in-flight Resolve: err = %v, want the corpus it loaded", r.err)
	}
	if _, _, err := reg.Resolve(info.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Resolve after delete = %v, want ErrNotFound", err)
	}
	if st := reg.Stats(); st.LoadedEntries != 0 || st.LoadedBytes != 0 {
		t.Fatalf("deleted corpus memoized: loadedEntries=%d loadedBytes=%d, want 0/0", st.LoadedEntries, st.LoadedBytes)
	}
}

// TestRegistryWaiterHonorsContext: a Resolve whose ctx is cancelled
// while the load it joined is blocked returns ctx.Err() at once.
func TestRegistryWaiterHonorsContext(t *testing.T) {
	loading := make(chan struct{})
	gate := make(chan struct{})
	var once sync.Once
	hs := &hookStore{onGet: func() {
		once.Do(func() { close(loading) })
		<-gate
	}}
	reg, info := coldRegistry(t, hs)
	leader := resolveAsync(context.Background(), reg, info.ID)
	<-loading
	ctx, cancel := context.WithCancel(context.Background())
	waiter := resolveAsync(ctx, reg, info.ID)
	for reg.Stats().LoadMisses < 2 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if r := within(t, waiter); !errors.Is(r.err, context.Canceled) {
		t.Fatalf("cancelled waiter: err = %v, want context.Canceled", r.err)
	}
	close(gate)
	if r := within(t, leader); r.err != nil {
		t.Fatalf("leader: %v", r.err)
	}
	if st := reg.Stats(); st.Loads != 1 || st.LoadedEntries != 1 {
		t.Fatalf("stats = %+v, want loads=1 loadedEntries=1", st)
	}
}
