package peering

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"regexp"

	"cuisinevol/internal/atomicfile"
)

// ErrSnapshotCorrupt reports that a snapshot file failed verification:
// its payload does not reproduce the fingerprint in the header, a record
// is malformed, or the entry count disagrees. Callers should discard the
// snapshot (start cold) rather than trust any part of it — a snapshot is
// a cache, so losing it costs recomputation, never correctness.
var ErrSnapshotCorrupt = errors.New("peering: snapshot corrupt")

// SnapshotMeta is the header record of a snapshot file.
type SnapshotMeta struct {
	// Version is the format version (currently 1).
	Version int `json:"version"`
	// Node is the node id that wrote the snapshot (informational).
	Node string `json:"node"`
	// Corpus is the writing server's default corpus fingerprint
	// (informational: entries are content-addressed, so a snapshot is
	// valid for any server — foreign entries simply never get hit).
	Corpus string `json:"corpus"`
	// Entries is the record count that must follow the header.
	Entries int `json:"entries"`
	// SHA256 is the hex fingerprint of the records section; load fails
	// with ErrSnapshotCorrupt unless the bytes on disk reproduce it.
	SHA256 string `json:"sha256"`
}

// SnapshotEntry is one cached result: the content-addressed cache key
// (64 hex chars) and the rendered response body.
type SnapshotEntry struct {
	Key  string
	Body []byte
}

// snapshotKeyRe pins the key shape: a SHA-256 result-cache key.
var snapshotKeyRe = regexp.MustCompile(`^[0-9a-f]{64}$`)

// WriteSnapshot persists entries to path with the corpusstore.FSStore
// crash-safety discipline: the whole file is rendered in memory, written
// to a temp file in the same directory, fsynced, renamed over path, and
// the directory fsynced — a crash leaves either the old snapshot or the
// new one, never a torn file. Entries must be ordered least-recently
// used first so a restore replays them into the same recency order.
//
// Format: one JSON header line (SnapshotMeta), then one record per line,
// "<key> <base64(body)>\n". The header's SHA256 covers the records
// section byte for byte.
func WriteSnapshot(path, node, corpus string, entries []SnapshotEntry) error {
	var records bytes.Buffer
	for _, e := range entries {
		if !snapshotKeyRe.MatchString(e.Key) {
			return fmt.Errorf("peering: refusing to snapshot malformed key %q", e.Key)
		}
		records.WriteString(e.Key)
		records.WriteByte(' ')
		records.WriteString(base64.StdEncoding.EncodeToString(e.Body))
		records.WriteByte('\n')
	}
	sum := sha256.Sum256(records.Bytes())
	header, err := json.Marshal(SnapshotMeta{
		Version: 1,
		Node:    node,
		Corpus:  corpus,
		Entries: len(entries),
		SHA256:  hex.EncodeToString(sum[:]),
	})
	if err != nil {
		return fmt.Errorf("peering: encoding snapshot header: %w", err)
	}
	data := make([]byte, 0, len(header)+1+records.Len())
	data = append(data, header...)
	data = append(data, '\n')
	data = append(data, records.Bytes()...)
	if err := atomicfile.WriteFile(path, ".snapshot-*", data); err != nil {
		return fmt.Errorf("peering: writing snapshot: %w", err)
	}
	return nil
}

// ReadSnapshot loads and verifies a snapshot. Any mismatch between the
// header and the bytes on disk — fingerprint, entry count, record shape
// — is ErrSnapshotCorrupt; a missing file surfaces as fs.ErrNotExist.
func ReadSnapshot(path string) (SnapshotMeta, []SnapshotEntry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return SnapshotMeta{}, nil, err
	}
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return SnapshotMeta{}, nil, fmt.Errorf("%w: no header line", ErrSnapshotCorrupt)
	}
	var meta SnapshotMeta
	if err := json.Unmarshal(data[:nl], &meta); err != nil {
		return SnapshotMeta{}, nil, fmt.Errorf("%w: unreadable header: %v", ErrSnapshotCorrupt, err)
	}
	if meta.Version != 1 {
		return SnapshotMeta{}, nil, fmt.Errorf("%w: unsupported version %d", ErrSnapshotCorrupt, meta.Version)
	}
	records := data[nl+1:]
	sum := sha256.Sum256(records)
	if hex.EncodeToString(sum[:]) != meta.SHA256 {
		return SnapshotMeta{}, nil, fmt.Errorf("%w: records do not reproduce the header fingerprint", ErrSnapshotCorrupt)
	}
	entries := make([]SnapshotEntry, 0, meta.Entries)
	sc := bufio.NewScanner(bytes.NewReader(records))
	sc.Buffer(nil, 64<<20) // response bodies can be large
	for sc.Scan() {
		line := sc.Bytes()
		sp := bytes.IndexByte(line, ' ')
		if sp < 0 {
			return SnapshotMeta{}, nil, fmt.Errorf("%w: record without separator", ErrSnapshotCorrupt)
		}
		key := string(line[:sp])
		if !snapshotKeyRe.MatchString(key) {
			return SnapshotMeta{}, nil, fmt.Errorf("%w: malformed key %q", ErrSnapshotCorrupt, key)
		}
		body, err := base64.StdEncoding.DecodeString(string(line[sp+1:]))
		if err != nil {
			return SnapshotMeta{}, nil, fmt.Errorf("%w: undecodable body for %s", ErrSnapshotCorrupt, key)
		}
		entries = append(entries, SnapshotEntry{Key: key, Body: body})
	}
	if err := sc.Err(); err != nil {
		return SnapshotMeta{}, nil, fmt.Errorf("%w: %v", ErrSnapshotCorrupt, err)
	}
	if len(entries) != meta.Entries {
		return SnapshotMeta{}, nil, fmt.Errorf("%w: %d entries on disk, header says %d", ErrSnapshotCorrupt, len(entries), meta.Entries)
	}
	return meta, entries, nil
}

// QuarantineSnapshot moves a failed snapshot aside (path + ".corrupt")
// so the evidence survives for inspection while the node starts cold —
// the same preserve-don't-delete discipline as corpusstore quarantine.
func QuarantineSnapshot(path string) error {
	return os.Rename(path, path+".corrupt")
}
