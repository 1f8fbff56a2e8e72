package server

import (
	"crypto/sha256"
	"encoding/hex"

	"cuisinevol/internal/lru"
)

// resultKey addresses a cached result by content: the SHA-256 of
// (corpus fingerprint, endpoint, canonicalized params). Two requests
// share an entry exactly when they are guaranteed byte-identical
// answers — same corpus, same computation, same parameters — so the
// cache never needs invalidation, only eviction.
func resultKey(fingerprint, endpoint, params string) string {
	h := sha256.New()
	h.Write([]byte(fingerprint))
	h.Write([]byte{0})
	h.Write([]byte(endpoint))
	h.Write([]byte{0})
	h.Write([]byte(params))
	return hex.EncodeToString(h.Sum(nil))
}

// newResultCache returns the server's result cache: rendered response
// bodies, immutable once cached, bounded at budget body bytes
// (bookkeeping overhead is ignored). budget <= 0 disables caching.
func newResultCache(budget int64) *lru.Cache[[]byte] {
	return lru.New(budget, func(body []byte) int64 { return int64(len(body)) })
}
