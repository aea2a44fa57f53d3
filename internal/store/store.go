// Package store is the durability layer beneath the serving daemon: a
// disk-backed content-addressed result store and a write-ahead job
// journal. Together they make waferscaled survive kill -9 — completed
// results outlive the process, and interrupted jobs are re-enqueued on
// restart.
//
// The package applies the repository's fault-design philosophy to its
// own storage: every write is atomic (temp file + rename in the same
// directory), every read is checksum-verified, and corruption is an
// expected event that is quarantined and counted, never a fatal one —
// the same way the simulated wafer routes around dead chiplets instead
// of refusing to boot.
package store

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// entryHeader is the one-line JSON header preceding the payload bytes
// in every entry file. Length and checksum make truncation and bit rot
// detectable on read.
type entryHeader struct {
	Key    string `json:"key"`
	Len    int64  `json:"len"`
	SHA256 string `json:"sha256"`
	UnixMS int64  `json:"unixMs"`
}

// tmpPrefix marks in-progress writes; a file with this prefix found at
// startup is a torn write from a crashed process and is deleted.
const tmpPrefix = ".tmp-"

// Store is the disk-backed content-addressed result store. Entries are
// immutable files named by their cache key (a hex SHA-256 of the
// canonical request spec), each carrying a header with the payload
// length and payload checksum. Writes go through a temp file and an
// atomic rename so a crash never leaves a half-written entry under an
// entry name; reads verify the checksum and quarantine mismatches.
// Safe for concurrent use.
type Store struct {
	dir      string // entries live in dir/entries, casualties in dir/quarantine
	maxBytes int64  // 0 = unbounded
	fsync    bool

	mu    sync.Mutex
	idx   map[string]entryInfo
	bytes int64
	seq   int64 // temp-file uniquifier

	stats Stats
}

type entryInfo struct {
	size    int64 // file size (header + payload)
	payload int64
	mtime   time.Time
}

// Stats counts the store's traffic and its brushes with corruption.
type Stats struct {
	Entries        int   `json:"entries"`
	Bytes          int64 `json:"bytes"`
	MaxBytes       int64 `json:"maxBytes,omitempty"`
	Hits           int64 `json:"hits"`
	Misses         int64 `json:"misses"`
	Puts           int64 `json:"puts"`
	Evictions      int64 `json:"evictions"`
	Quarantined    int64 `json:"quarantined"`    // corrupt entries moved aside (startup scan + reads)
	TornTemps      int64 `json:"tornTemps"`      // interrupted temp files deleted at startup
	WriteFailures  int64 `json:"writeFailures"`  // Put errors (disk full, permissions) — non-fatal
	VerifyFailures int64 `json:"verifyFailures"` // checksum/length mismatches detected on read
}

// Open prepares the store rooted at dir, creating it if needed, and
// scans existing entries: torn temp files are deleted, and every entry
// is checksum-verified — corrupt ones are quarantined (moved into
// dir/quarantine, never deleted, so a post-mortem can inspect them).
// Corruption is counted, not fatal: Open only fails on I/O errors that
// make the directory itself unusable. maxBytes > 0 bounds the total
// payload bytes kept; the oldest entries are evicted past the bound.
func Open(dir string, maxBytes int64) (*Store, error) {
	s := &Store{dir: dir, maxBytes: maxBytes, fsync: true, idx: make(map[string]entryInfo)}
	for _, d := range []string{s.entriesDir(), s.quarantineDir()} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	names, err := os.ReadDir(s.entriesDir())
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	for _, de := range names {
		if de.IsDir() {
			continue
		}
		name := de.Name()
		path := filepath.Join(s.entriesDir(), name)
		if strings.HasPrefix(name, tmpPrefix) {
			os.Remove(path)
			s.stats.TornTemps++
			continue
		}
		if !validKey(name) {
			s.quarantine(path, name)
			continue
		}
		payload, hdr, verr := readEntry(path, name)
		if verr != nil {
			s.quarantine(path, name)
			continue
		}
		fi, ferr := de.Info()
		mtime := time.Now()
		if ferr == nil {
			mtime = fi.ModTime()
		}
		s.idx[name] = entryInfo{size: entrySize(hdr, payload), payload: int64(len(payload)), mtime: mtime}
		s.bytes += int64(len(payload))
	}
	s.evictLocked()
	return s, nil
}

func (s *Store) entriesDir() string    { return filepath.Join(s.dir, "entries") }
func (s *Store) quarantineDir() string { return filepath.Join(s.dir, "quarantine") }

// validKey accepts only lowercase-hex SHA-256 names: anything else in
// the entries directory was not written by this store and must not be
// trusted (and a key is used as a file name, so this is also the path
// -traversal guard).
func validKey(key string) bool {
	if len(key) != sha256.Size*2 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func entrySize(hdr []byte, payload []byte) int64 {
	return int64(len(hdr)) + 1 + int64(len(payload))
}

// readEntry reads and fully verifies one entry file: header parses, the
// key matches the file name, the payload length matches, and the
// payload hashes to the recorded checksum.
func readEntry(path, key string) (payload []byte, hdr []byte, err error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	nl := bytes.IndexByte(b, '\n')
	if nl < 0 {
		return nil, nil, fmt.Errorf("store: entry %s: no header line", key)
	}
	var h entryHeader
	if err := json.Unmarshal(b[:nl], &h); err != nil {
		return nil, nil, fmt.Errorf("store: entry %s: bad header: %w", key, err)
	}
	payload = b[nl+1:]
	if h.Key != key {
		return nil, nil, fmt.Errorf("store: entry %s: header names key %s", key, h.Key)
	}
	if int64(len(payload)) != h.Len {
		return nil, nil, fmt.Errorf("store: entry %s: %d payload bytes, header says %d (truncated?)", key, len(payload), h.Len)
	}
	sum := sha256.Sum256(payload)
	if hex.EncodeToString(sum[:]) != h.SHA256 {
		return nil, nil, fmt.Errorf("store: entry %s: payload checksum mismatch", key)
	}
	return payload, b[:nl], nil
}

// quarantine moves a corrupt file aside (uniquified so repeated
// corruption of the same key never collides) and counts it. Failing to
// move falls back to deleting — a corrupt entry must never be served.
func (s *Store) quarantine(path, name string) {
	dst := filepath.Join(s.quarantineDir(), fmt.Sprintf("%s.%d", name, time.Now().UnixNano()))
	if err := os.Rename(path, dst); err != nil {
		os.Remove(path)
	}
	s.stats.Quarantined++
}

// Get returns the stored payload for key, verifying its checksum. A
// corrupt entry is quarantined and reported as a miss — the caller
// recomputes, and the fresh Put heals the store.
func (s *Store) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	info, ok := s.idx[key]
	if !ok {
		s.stats.Misses++
		return nil, false
	}
	path := filepath.Join(s.entriesDir(), key)
	payload, _, err := readEntry(path, key)
	if err != nil {
		s.stats.VerifyFailures++
		s.quarantine(path, key)
		delete(s.idx, key)
		s.bytes -= info.payload
		s.stats.Misses++
		return nil, false
	}
	s.stats.Hits++
	return payload, true
}

// Put durably stores payload under key: temp file in the entries
// directory, fsync, rename, so a crash at any instant leaves either the
// old state or the new entry — never a torn file under the entry name.
// Errors are returned for accounting but are safe to treat as non-fatal
// (the in-memory tier still has the value).
func (s *Store) Put(key string, payload []byte) error {
	if !validKey(key) {
		return fmt.Errorf("store: invalid key %q", key)
	}
	sum := sha256.Sum256(payload)
	hdr, err := json.Marshal(entryHeader{
		Key:    key,
		Len:    int64(len(payload)),
		SHA256: hex.EncodeToString(sum[:]),
		UnixMS: time.Now().UnixMilli(),
	})
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	tmp := filepath.Join(s.entriesDir(), fmt.Sprintf("%s%d-%d", tmpPrefix, os.Getpid(), s.seq))
	if err := s.writeFile(tmp, hdr, payload); err != nil {
		os.Remove(tmp)
		s.stats.WriteFailures++
		return err
	}
	final := filepath.Join(s.entriesDir(), key)
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		s.stats.WriteFailures++
		return fmt.Errorf("store: %w", err)
	}
	if old, ok := s.idx[key]; ok {
		s.bytes -= old.payload
	}
	s.idx[key] = entryInfo{size: entrySize(hdr, payload), payload: int64(len(payload)), mtime: time.Now()}
	s.bytes += int64(len(payload))
	s.stats.Puts++
	s.evictLocked()
	return nil
}

func (s *Store) writeFile(path string, hdr, payload []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	w := bufio.NewWriter(f)
	w.Write(hdr)
	w.WriteByte('\n')
	w.Write(payload)
	err = w.Flush()
	if err == nil && s.fsync {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// evictLocked deletes oldest-written entries until the byte bound
// holds. Caller holds s.mu.
func (s *Store) evictLocked() {
	if s.maxBytes <= 0 || s.bytes <= s.maxBytes {
		return
	}
	type aged struct {
		key   string
		mtime time.Time
	}
	all := make([]aged, 0, len(s.idx))
	for k, info := range s.idx {
		all = append(all, aged{k, info.mtime})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].mtime.Before(all[j].mtime) })
	for _, a := range all {
		if s.bytes <= s.maxBytes || len(s.idx) <= 1 {
			return
		}
		info := s.idx[a.key]
		os.Remove(filepath.Join(s.entriesDir(), a.key))
		delete(s.idx, a.key)
		s.bytes -= info.payload
		s.stats.Evictions++
	}
}

// Len returns the indexed entry count.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.idx)
}

// Stats returns a snapshot of the counters and occupancy.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Entries = len(s.idx)
	st.Bytes = s.bytes
	st.MaxBytes = s.maxBytes
	return st
}

// SetFsync toggles the per-write fsync (tests disable it for speed;
// production keeps it on — a result we told the client about must
// survive power loss).
func (s *Store) SetFsync(on bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fsync = on
}
