package server

import (
	"bytes"
	"net/http"
	"testing"
)

// TestMineKernelParam pins that /v1/mine has no kernel parameter: like
// any unknown parameter, kernel= is ignored, so requests that differ
// only in it share one cache entry, one body, one ETag and one
// computation.
func TestMineKernelParam(t *testing.T) {
	srv, ts := newTestServer(t)

	base, baseBody := get(t, ts, "/v1/mine?region=ITA")
	if base.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/mine?region=ITA: status %d, body %s", base.StatusCode, baseBody)
	}
	etag := base.Header.Get("ETag")
	if etag == "" {
		t.Fatal("no ETag on /v1/mine")
	}
	for _, path := range []string{
		"/v1/mine?region=ITA&kernel=fpgrowth",
		"/v1/mine?region=ITA&kernel=bogus",
	} {
		resp, body := get(t, ts, path)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d, body %s", path, resp.StatusCode, body)
		}
		if !bytes.Equal(body, baseBody) {
			t.Fatalf("GET %s: body differs from the kernel-less request", path)
		}
		if got := resp.Header.Get("ETag"); got != etag {
			t.Fatalf("GET %s: ETag %q, want %q", path, got, etag)
		}
	}
	if got := srv.Computations(); got != 1 {
		t.Fatalf("three requests differing only in kernel= cost %d computations, want 1", got)
	}
}
