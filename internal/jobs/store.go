package jobs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/canon"
)

// Store is the content-addressed result store: an append-only log of
// key/value records in JSONL segment files plus an in-memory index of the
// latest value per key. Records are appended to the current segment until
// it exceeds the roll threshold; the segment is then fsynced, closed and
// a new one started, so every sealed segment is durable. A null value is
// a tombstone removing the key.
//
// On open the store replays all segments in name order. A segment whose
// tail fails to parse — the signature of a crash mid-append — keeps its
// valid prefix; the corrupt tail is skipped and counted, and appends go
// to a fresh segment, never into a possibly-torn file. A write that fails
// partway is cut back out of the segment, so it cannot hide the records
// appended after it.
//
// Store is safe for concurrent use: reads share an RLock over the index
// only, so lookups proceed during appends and segment rolls.
//
// Two hooks open the store to replication (see internal/cluster):
// Observer fires on every locally originated Put with the key and its
// canonical value; OnSeal fires with a segment's name when it is sealed
// by a roll. Both are called with the store mutex held and must not call
// back into the store — enqueue and return.
type Store struct {
	mu          sync.RWMutex
	dir         string
	index       map[string]json.RawMessage //optlint:guardedby mu
	seg         segmentFile                //optlint:guardedby mu
	segBytes    int64                      //optlint:guardedby mu
	segSeq      int                        //optlint:guardedby mu
	maxSegBytes int64
	skippedTail int  //optlint:guardedby mu
	closed      bool //optlint:guardedby mu

	// Observer, when set, observes every locally originated append of a
	// real value (tombstones and replicated ingests are not reported).
	// Called under the store mutex: do not call back into the store.
	Observer func(key string, value json.RawMessage)
	// OnSeal, when set, observes every segment seal (fsync + close on a
	// roll) with the sealed segment's file name. Called under the store
	// mutex: do not call back into the store.
	OnSeal func(name string)
}

// segmentFile is what the store needs of its active segment: an
// *os.File, or in tests a wrapper that fails a write partway.
type segmentFile interface {
	io.WriteSeeker
	Truncate(size int64) error
	Sync() error
	Close() error
	Name() string
}

// storeRecord is one JSONL line as replay and ImportSegment decode it:
// the key and its (raw) value. recordLine writes the lines in canon's
// form, so canon.Unmarshal decodes them in one pass; a line in any other
// form decodes as encoding/json decodes it.
type storeRecord struct {
	K string          `json:"k"`
	V json.RawMessage `json:"v"`
}

// ErrStoreClosed is returned by a write to a store after its Close.
var ErrStoreClosed = errors.New("jobs: store closed")

// DefaultSegmentBytes is the roll threshold for segments opened by Open.
const DefaultSegmentBytes = 4 << 20

// Open opens (creating if needed) a store rooted at dir.
func Open(dir string) (*Store, error) {
	return OpenWithSegmentBytes(dir, DefaultSegmentBytes)
}

// OpenWithSegmentBytes is Open with an explicit segment roll threshold
// (tests use tiny segments to force rolls).
func OpenWithSegmentBytes(dir string, maxSegBytes int64) (*Store, error) {
	if maxSegBytes < 1 {
		return nil, fmt.Errorf("jobs: segment size %d < 1", maxSegBytes)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobs: open store: %w", err)
	}
	s := &Store{
		dir:         dir,
		index:       make(map[string]json.RawMessage),
		maxSegBytes: maxSegBytes,
	}
	names, err := segmentNames(dir)
	if err != nil {
		return nil, err
	}
	// Replay mutates the guarded index before s escapes this function, so
	// no other goroutine can observe it yet — but taking the lock anyway
	// costs nothing, keeps the guardedby contract checkable, and protects
	// any future caller that shares the store before Open returns.
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, name := range names {
		if seq := segmentSeq(name); seq > s.segSeq {
			s.segSeq = seq
		}
		if err := s.replay(filepath.Join(dir, name)); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// segmentNames lists the store's segment files in replay (name) order.
// Replicated segments imported from peers (rep-<origin>-seg-NNNNNN.jsonl)
// sort before local ones ("rep-" < "seg-"), so local appends always win
// when both spell a value for the same key.
func segmentNames(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("jobs: open store: %w", err)
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && !strings.HasSuffix(name, ".jsonl") {
			continue
		}
		if !e.IsDir() && (strings.HasPrefix(name, "seg-") || strings.HasPrefix(name, "rep-")) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names, nil
}

// segmentSeq parses the numeric part of seg-NNNNNN.jsonl (0 if malformed;
// such files still replay, they just don't advance the sequence).
func segmentSeq(name string) int {
	var seq int
	if _, err := fmt.Sscanf(name, "seg-%06d.jsonl", &seq); err != nil {
		return 0
	}
	return seq
}

// replay loads one segment into the index, stopping at the first
// unparseable line (a torn append) and counting the skipped tail.
//
//optlint:locked mu
func (s *Store) replay(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("jobs: replay %s: %w", path, err)
	}
	//optlint:allow errsink segment is opened read-only for replay; close cannot lose data
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64*1024), 64<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec storeRecord
		if err := canon.Unmarshal(line, &rec); err != nil || rec.K == "" {
			// Torn or garbage tail: keep what parsed, skip the rest.
			s.skippedTail++
			return nil
		}
		s.apply(rec.K, rec.V)
	}
	if err := sc.Err(); err != nil {
		// An over-long or unreadable tail is the same case as a torn one.
		s.skippedTail++
	}
	return nil
}

// apply folds one record into the index (null value = tombstone).
//
//optlint:locked mu
func (s *Store) apply(key string, value json.RawMessage) {
	if len(value) == 0 || string(value) == "null" {
		delete(s.index, key)
		return
	}
	s.index[key] = value
}

// Get returns the latest value stored for key. The returned bytes are
// shared and must not be modified.
func (s *Store) Get(key string) (json.RawMessage, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	v, ok := s.index[key]
	return v, ok
}

// GetJSON unmarshals the latest value for key into out, which must point
// to a zero value, reporting whether the key was present. The value is
// canon's encoding, so canon.Unmarshal decodes it.
func (s *Store) GetJSON(key string, out any) (bool, error) {
	raw, ok := s.Get(key)
	if !ok {
		return false, nil
	}
	if err := canon.Unmarshal(raw, out); err != nil {
		return true, fmt.Errorf("jobs: stored value for %s: %w", key, err)
	}
	return true, nil
}

// Put appends key -> v (canonically encoded) and updates the index. The
// stored value is exactly canon's encoding of v. The Observer, if set,
// sees the append: Put is the locally originated write path, the one
// replication must fan out.
func (s *Store) Put(key string, v any) error {
	return s.append(key, func(line []byte) ([]byte, error) { return canon.Append(line, v) }, true)
}

// PutRaw appends an already-encoded value for key without notifying the
// Observer. It is the replication ingest path: the value was canonically
// encoded (and observed) at its origin, so re-marshaling could only
// corrupt it and re-observing it would ping-pong records between
// replicas forever. The bytes come from a peer, so they are checked:
// empty or invalid JSON is an error, as is a tombstone, and whitespace
// is compacted away so the record stays one line.
func (s *Store) PutRaw(key string, raw json.RawMessage) error {
	return s.append(key, func(line []byte) ([]byte, error) {
		n := len(line)
		out := bytes.NewBuffer(line)
		if err := json.Compact(out, raw); err != nil {
			return nil, fmt.Errorf("jobs: PutRaw for %s: %w", key, err)
		}
		if string(out.Bytes()[n:]) == "null" {
			return nil, fmt.Errorf("jobs: PutRaw of a tombstone for %s", key)
		}
		return out.Bytes(), nil
	}, false)
}

// Delete appends a tombstone for key.
func (s *Store) Delete(key string) error {
	return s.append(key, nil, false)
}

// recordLine builds one segment line, {"k":<key>,"v":<value>}\n, for
// Put, PutRaw and Delete alike. The key goes through canon's string
// escaper; appendValue appends the value's JSON, which must be one line,
// and a nil appendValue writes the tombstone null. The returned value is
// the value's bytes inside the line: the index, the segment and the
// Observer share that one copy.
func recordLine(key string, appendValue func(line []byte) ([]byte, error)) (line []byte, value json.RawMessage, err error) {
	line = append(line, `{"k":`...)
	line = canon.AppendString(line, key)
	line = append(line, `,"v":`...)
	start := len(line)
	if appendValue == nil {
		line = append(line, "null"...)
	} else if line, err = appendValue(line); err != nil {
		return nil, nil, err
	}
	end := len(line)
	line = append(line, '}', '\n')
	return line, line[start:end:end], nil
}

// append writes one record line, rolling the segment first when the
// current one is full. local marks an Observer-visible origin write.
func (s *Store) append(key string, appendValue func(line []byte) ([]byte, error), local bool) error {
	if key == "" {
		return fmt.Errorf("jobs: empty store key")
	}
	line, value, err := recordLine(key, appendValue)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrStoreClosed
	}
	if s.seg == nil || s.segBytes+int64(len(line)) > s.maxSegBytes {
		if err := s.rollLocked(); err != nil {
			return err
		}
	}
	if _, err := s.seg.Write(line); err != nil {
		s.dropTornLocked()
		return fmt.Errorf("jobs: append: %w", err)
	}
	s.segBytes += int64(len(line))
	s.apply(key, value)
	if local && s.Observer != nil {
		s.Observer(key, value)
	}
	return nil
}

// dropTornLocked removes what a failed write left of its line. Replay
// stops at the first unparseable line, so a record appended behind torn
// bytes would be lost on reopen even after Sync. The segment is cut back
// to its last complete record; only if that fails is it sealed, torn
// line last, and appends move to a fresh segment.
//
//optlint:locked mu
func (s *Store) dropTornLocked() {
	err := s.seg.Truncate(s.segBytes)
	if err == nil {
		_, err = s.seg.Seek(s.segBytes, io.SeekStart)
	}
	if err == nil {
		return
	}
	if s.rollLocked() != nil && s.seg != nil {
		// The seal failed too. Drop the handle anyway so that nothing is
		// written behind the torn line; the next append opens a segment.
		_ = s.seg.Close()
		s.seg = nil
	}
}

// rollLocked seals the current segment (fsync + close) and opens the
// next. Callers hold the write lock.
//
//optlint:locked mu
func (s *Store) rollLocked() error {
	if s.seg != nil {
		if err := s.seg.Sync(); err != nil {
			return fmt.Errorf("jobs: seal segment: %w", err)
		}
		if err := s.seg.Close(); err != nil {
			return fmt.Errorf("jobs: seal segment: %w", err)
		}
		s.seg = nil
		if s.OnSeal != nil {
			s.OnSeal(fmt.Sprintf("seg-%06d.jsonl", s.segSeq))
		}
	}
	s.segSeq++
	path := filepath.Join(s.dir, fmt.Sprintf("seg-%06d.jsonl", s.segSeq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("jobs: open segment: %w", err)
	}
	s.seg = f
	s.segBytes = 0
	return nil
}

// Sync fsyncs the current segment, making everything appended so far
// durable without waiting for a roll.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.seg == nil {
		return nil
	}
	return s.seg.Sync()
}

// Close seals the current segment. Writes after it (Put, PutRaw, Delete,
// ImportSegment) return ErrStoreClosed; a second Close returns nil.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.seg == nil {
		return nil
	}
	if err := s.seg.Sync(); err != nil {
		return err
	}
	err := s.seg.Close()
	s.seg = nil
	return err
}

// Len returns the number of live keys.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.index)
}

// SkippedTails reports how many segment tails were skipped as corrupt
// during Open — observability for crash recovery.
func (s *Store) SkippedTails() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.skippedTail
}

// SegmentInfo describes one of the store's own (locally written) segment
// files for replication: name, current size, and whether it is still the
// active append target (an active segment may grow after being listed).
type SegmentInfo struct {
	// Name is the segment file name (seg-NNNNNN.jsonl).
	Name string `json:"name"`
	// Size is the file size in bytes when listed.
	Size int64 `json:"size"`
	// Active reports whether the segment is still being appended to.
	Active bool `json:"active"`
}

// Segments lists the store's locally written segments in name order.
// Imported replica segments (rep-*) are excluded: each node serves only
// its own data, so shipped segments never chain origins.
func (s *Store) Segments() ([]SegmentInfo, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("jobs: list segments: %w", err)
	}
	active := ""
	if s.seg != nil {
		active = filepath.Base(s.seg.Name())
	}
	var infos []SegmentInfo
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, "seg-") || !strings.HasSuffix(name, ".jsonl") {
			continue
		}
		fi, err := e.Info()
		if err != nil {
			return nil, fmt.Errorf("jobs: list segments: %w", err)
		}
		infos = append(infos, SegmentInfo{Name: name, Size: fi.Size(), Active: name == active})
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	return infos, nil
}

// validSegmentName reports whether name is a well-formed local segment
// file name — the only names ReadSegment and ImportSegment accept, so a
// peer-supplied name can never traverse outside the store directory.
func validSegmentName(name string) bool {
	var seq int
	_, err := fmt.Sscanf(name, "seg-%06d.jsonl", &seq)
	return err == nil && name == fmt.Sprintf("seg-%06d.jsonl", seq)
}

// ReadSegment returns the named local segment's bytes. Reading the
// active segment is allowed — the read lock holds off appends, so the
// copy is never torn mid-line.
func (s *Store) ReadSegment(name string) ([]byte, error) {
	if !validSegmentName(name) {
		return nil, fmt.Errorf("jobs: bad segment name %q", name)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	data, err := os.ReadFile(filepath.Join(s.dir, name))
	if err != nil {
		return nil, fmt.Errorf("jobs: read segment: %w", err)
	}
	return data, nil
}

// ImportSegment ingests a segment shipped from the named origin peer:
// the file lands as rep-<origin>-<name> (replayed before local segments
// on a future open) and its records fill gaps in the live index. Import
// is strictly additive — a record is applied only when its key is absent
// locally, and tombstones are ignored — so replicated data can never
// overwrite or delete anything this node wrote itself. Re-importing the
// same segment (e.g. after the origin's active segment grew) rewrites
// the file and re-runs the gap fill, which is idempotent. Returns the
// number of records applied to the index.
func (s *Store) ImportSegment(origin, name string, data []byte) (int, error) {
	if !validSegmentName(name) {
		return 0, fmt.Errorf("jobs: bad segment name %q", name)
	}
	if origin == "" || strings.ContainsAny(origin, "/\\ \t\n") {
		return 0, fmt.Errorf("jobs: bad segment origin %q", origin)
	}
	// Parse outside the lock; a torn tail (origin crashed or the segment
	// was copied mid-append) keeps the valid prefix, like replay.
	var recs []storeRecord
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 64*1024), 64<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec storeRecord
		if err := canon.Unmarshal(line, &rec); err != nil || rec.K == "" {
			break
		}
		recs = append(recs, rec)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrStoreClosed
	}
	path := filepath.Join(s.dir, "rep-"+origin+"-"+name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return 0, fmt.Errorf("jobs: import segment: %w", err)
	}
	added := 0
	for _, rec := range recs {
		if len(rec.V) == 0 || string(rec.V) == "null" {
			continue // tombstone: imports never delete
		}
		if _, ok := s.index[rec.K]; ok {
			continue // gap fill only: local data wins
		}
		s.index[rec.K] = rec.V
		added++
	}
	return added, nil
}
