package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
)

// loopback serves a handler on 127.0.0.1 with net/http, so requests pay
// the real wire path: TCP, HTTP/1.1 parsing and keep-alive connections.
type loopback struct {
	srv  *http.Server
	base string
	done chan error
}

func startLoopback(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("loopback listen: %w", err)
	}
	lb := &loopback{
		srv:  &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		base: "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { lb.done <- lb.srv.Serve(ln) }()
	return lb, nil
}

// close stops the listener, waits for in-flight requests and for the
// serving goroutine to return.
func (lb *loopback) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	lb.srv.Shutdown(ctx)
	<-lb.done
}

// client sends requests to one loopback server over keep-alive
// connections.
type client struct {
	base string
	http *http.Client
}

func newClient(base string, conns int) *client {
	return &client{base: base, http: &http.Client{Transport: &http.Transport{
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}}}
}

func (c *client) closeIdle() { c.http.CloseIdleConnections() }

// reply is one completed request.
type reply struct {
	status int
	body   []byte
	etag   string
	dur    time.Duration
}

// traceHeader carries "<request id>-<parent span id>" from a traced
// client request to the server-side span wrapper.
const traceHeader = "X-Perfbench-Trace"

// do sends one request and reads the whole body; dur covers both.
func (c *client) do(method, path string, body []byte, hdr http.Header) (reply, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return reply{}, err
	}
	for k, vs := range hdr {
		req.Header[k] = vs
	}
	start := time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		return reply{}, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	dur := time.Since(start)
	if err != nil {
		return reply{}, err
	}
	return reply{status: resp.StatusCode, body: b, etag: resp.Header.Get("ETag"), dur: dur}, nil
}

// call is one request of a task, sent inside a span when the task is
// traced (task.span != 0).
func (t *task) call(method, path string, body []byte, hdr http.Header) (reply, error) {
	if t.span == 0 {
		return t.c.do(method, path, body, hdr)
	}
	id, req := t.tr.newID(), t.tr.newID()
	h := http.Header{}
	for k, vs := range hdr {
		h[k] = vs
	}
	h.Set(traceHeader, strconv.FormatUint(req, 10)+"-"+strconv.FormatUint(id, 10))
	start := time.Now()
	r, err := t.c.do(method, path, body, h)
	t.tr.record(id, t.span, req, "client.request", start, time.Now())
	return r, err
}

// task is one unit of a client's closed loop — a dashboard refresh, a
// notebook batch, a write then its read-back. In a traced run every
// other task records a span tree under a "client.task" root.
type task struct {
	c     *client
	tr    *tracer
	span  uint64    // root span id; 0 when this task is untraced
	phase time.Time // start of the timed phase
}

// traceServer wraps a handler with a "server.handler" span parented on
// the client span named in traceHeader; requests without the header are
// passed through untimed. The span id rides on the request context so
// deeper layers (peer forwards) can parent their spans.
func traceServer(tr *tracer, name string, h http.Handler) http.Handler {
	if tr == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reqID, parent, ok := parseTraceHeader(r.Header.Get(traceHeader))
		if !ok {
			h.ServeHTTP(w, r)
			return
		}
		id := tr.newID()
		start := time.Now()
		h.ServeHTTP(w, r.WithContext(withSpan(r.Context(), id, reqID)))
		tr.record(id, parent, reqID, name, start, time.Now())
	})
}

func parseTraceHeader(v string) (req, parent uint64, ok bool) {
	a, b, found := strings.Cut(v, "-")
	if !found {
		return 0, 0, false
	}
	req, err1 := strconv.ParseUint(a, 10, 64)
	parent, err2 := strconv.ParseUint(b, 10, 64)
	return req, parent, err1 == nil && err2 == nil
}

// traceContext wraps a handler reached only through a context — the
// owner side of a peer forward — with a span parented on the span the
// context carries.
func traceContext(tr *tracer, name string, h http.Handler) http.Handler {
	if tr == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ref, ok := spanFrom(r.Context())
		if !ok {
			h.ServeHTTP(w, r)
			return
		}
		id := tr.newID()
		start := time.Now()
		h.ServeHTTP(w, r.WithContext(withSpan(r.Context(), id, ref.req)))
		tr.record(id, ref.span, ref.req, name, start, time.Now())
	})
}

// traceTransport wraps a peer transport with a "peering.forward" span.
type traceTransport struct {
	tr   *tracer
	next http.RoundTripper
}

func (t traceTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ref, ok := spanFrom(req.Context())
	if !ok {
		return t.next.RoundTrip(req)
	}
	id := t.tr.newID()
	start := time.Now()
	resp, err := t.next.RoundTrip(req.WithContext(withSpan(req.Context(), id, ref.req)))
	t.tr.record(id, ref.span, ref.req, "peering.forward", start, time.Now())
	return resp, err
}

// tally is what one client recorded in the timed phase. While the phase
// runs, timings go to a spill file rather than into these slices, so the
// harness's memory stays flat however many requests the servers answer
// and the peak RSS of a serve run is theirs; load fills the slices after
// the peak has been read.
type tally struct {
	reads      []float64       // read latencies, ms
	readAt     []time.Duration // when each read completed, from the phase start
	writes     []float64       // write latencies, ms
	okAt       []time.Duration // when each successful operation completed
	tasks      []float64       // untraced task wall times, s
	taskAt     []time.Duration // when each untraced task completed
	tracedTask []float64       // traced task wall times, s
	attempted  int
	failed     []string
	bodies     []bodyRecord // 2xx bodies to check against the baseline afterwards
	spill      *spill
}

// Kinds of spill records.
const (
	recOK     = 'o' // a successful operation completed at
	recRead   = 'r' // a successful read completed at, its latency in ms
	recWrite  = 'w' // a write's latency in ms
	recTask   = 't' // an untraced task completed at, its wall time in s
	recTraced = 'T' // a traced task's wall time in s
)

// recLen is the size of a spill record: kind, time from the phase start
// in ns, value.
const recLen = 1 + 8 + 8

// spill is the file a client's timings are appended to during a phase.
type spill struct {
	f   *os.File
	w   *bufio.Writer
	rec [recLen]byte
	err error
}

func newTally(dir string) (*tally, error) {
	f, err := os.CreateTemp(dir, "tally-*.bin")
	if err != nil {
		return nil, fmt.Errorf("spill file: %w", err)
	}
	return &tally{spill: &spill{f: f, w: bufio.NewWriterSize(f, 64<<10)}}, nil
}

func (tl *tally) put(kind byte, at time.Duration, v float64) {
	s := tl.spill
	s.rec[0] = kind
	binary.LittleEndian.PutUint64(s.rec[1:], uint64(at))
	binary.LittleEndian.PutUint64(s.rec[9:], math.Float64bits(v))
	if _, err := s.w.Write(s.rec[:]); err != nil && s.err == nil {
		s.err = err
	}
}

// succeed records a successful operation of t.
func (tl *tally) succeed(t *task) { tl.put(recOK, time.Since(t.phase), 0) }

// read records a successful read of t that took d.
func (tl *tally) read(t *task, d time.Duration) { tl.put(recRead, time.Since(t.phase), ms(d)) }

// write records the latency of a write.
func (tl *tally) write(d time.Duration) { tl.put(recWrite, 0, ms(d)) }

// load reads the spilled records back into tl's slices and removes the
// spill file; tl records nothing more after it.
func (tl *tally) load() error {
	s := tl.spill
	if s == nil {
		return nil
	}
	tl.spill = nil
	defer os.Remove(s.f.Name())
	defer s.f.Close()
	if err := errors.Join(s.err, s.w.Flush()); err != nil {
		return fmt.Errorf("spill file: %w", err)
	}
	if _, err := s.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("spill file: %w", err)
	}
	r := bufio.NewReaderSize(s.f, 64<<10)
	var rec [recLen]byte
	for {
		if _, err := io.ReadFull(r, rec[:]); err == io.EOF {
			return nil
		} else if err != nil {
			return fmt.Errorf("spill file: %w", err)
		}
		at := time.Duration(binary.LittleEndian.Uint64(rec[1:]))
		v := math.Float64frombits(binary.LittleEndian.Uint64(rec[9:]))
		switch rec[0] {
		case recOK:
			tl.okAt = append(tl.okAt, at)
		case recRead:
			tl.okAt = append(tl.okAt, at)
			tl.readAt = append(tl.readAt, at)
			tl.reads = append(tl.reads, v)
		case recWrite:
			tl.writes = append(tl.writes, v)
		case recTask:
			tl.taskAt = append(tl.taskAt, at)
			tl.tasks = append(tl.tasks, v)
		case recTraced:
			tl.tracedTask = append(tl.tracedTask, v)
		default:
			return fmt.Errorf("spill file: record kind %q", rec[0])
		}
	}
}

// bodyRecord is the digest of one response body, checked after the run.
type bodyRecord struct {
	key    string
	digest [32]byte
}

func digest(b []byte) [32]byte { return sha256.Sum256(b) }

func (tl *tally) failf(format string, args ...any) {
	tl.failed = append(tl.failed, fmt.Sprintf(format, args...))
}

// merge folds client tallies into one.
func merge(ts []*tally) *tally {
	out := &tally{}
	for _, t := range ts {
		out.reads = append(out.reads, t.reads...)
		out.readAt = append(out.readAt, t.readAt...)
		out.writes = append(out.writes, t.writes...)
		out.okAt = append(out.okAt, t.okAt...)
		out.tasks = append(out.tasks, t.tasks...)
		out.taskAt = append(out.taskAt, t.taskAt...)
		out.tracedTask = append(out.tracedTask, t.tracedTask...)
		out.attempted += t.attempted
		out.failed = append(out.failed, t.failed...)
		out.bodies = append(out.bodies, t.bodies...)
	}
	return out
}

// closedLoop runs one client per tally for d. Each repeatedly runs its
// next task and waits for it to finish before starting another; body
// returns false when the client has nothing left to send. In a traced
// run odd-numbered tasks are traced, so traced and untraced tasks
// interleave under the same load and state. closedLoop returns when
// every client has stopped.
func closedLoop(tallies []*tally, d time.Duration, c *client, tr *tracer, body func(client, seq int, t *task, tl *tally) bool) {
	var wg sync.WaitGroup
	phase := time.Now()
	deadline := phase.Add(d)
	for i := range tallies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tl := tallies[i]
			for seq := 0; time.Now().Before(deadline); seq++ {
				t := &task{c: c, tr: tr, phase: phase}
				if tr != nil && seq%2 == 1 {
					t.span = tr.newID()
				}
				start := time.Now()
				more := body(i, seq, t, tl)
				end := time.Now()
				if t.span != 0 {
					tr.record(t.span, 0, 0, "client.task", start, end)
					tl.put(recTraced, 0, end.Sub(start).Seconds())
				} else {
					tl.put(recTask, end.Sub(phase), end.Sub(start).Seconds())
				}
				if !more {
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

// okStatus reports whether a status is a success: 2xx or 304.
func okStatus(code int) bool { return code/100 == 2 || code == http.StatusNotModified }
