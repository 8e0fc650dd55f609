package jobs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"unicode/utf8"
)

// TestStoreHitMiss: basic put/get/overwrite/tombstone semantics.
func TestStoreHitMiss(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, ok := s.Get("missing"); ok {
		t.Fatal("empty store returned a value")
	}
	if err := s.Put("k1", map[string]int{"b": 2, "a": 1}); err != nil {
		t.Fatal(err)
	}
	raw, ok := s.Get("k1")
	if !ok {
		t.Fatal("put value not found")
	}
	if string(raw) != `{"a":1,"b":2}` {
		t.Errorf("stored value not canonical: %s", raw)
	}
	if err := s.Put("k1", "second"); err != nil {
		t.Fatal(err)
	}
	if raw, _ := s.Get("k1"); string(raw) != `"second"` {
		t.Errorf("overwrite lost: %s", raw)
	}
	if err := s.Delete("k1"); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("k1"); ok {
		t.Fatal("tombstoned key still present")
	}
	if s.Len() != 0 {
		t.Errorf("Len = %d after delete", s.Len())
	}
}

// TestStoreReopen: the index rebuilds from segments, including
// overwrites and tombstones, and new appends go to a fresh segment.
func TestStoreReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenWithSegmentBytes(dir, 128)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := s.Put(fmt.Sprintf("key-%02d", i), i); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Put("key-03", "rewritten"); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("key-05"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segsBefore, _ := segmentNames(dir)
	if len(segsBefore) < 2 {
		t.Fatalf("expected multiple segments, got %v", segsBefore)
	}

	r, err := OpenWithSegmentBytes(dir, 128)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != 19 {
		t.Errorf("reopened Len = %d, want 19", r.Len())
	}
	if raw, _ := r.Get("key-03"); string(raw) != `"rewritten"` {
		t.Errorf("overwrite lost across reopen: %s", raw)
	}
	if _, ok := r.Get("key-05"); ok {
		t.Error("tombstone lost across reopen")
	}
	if err := r.Put("fresh", 1); err != nil {
		t.Fatal(err)
	}
	segsAfter, _ := segmentNames(dir)
	if len(segsAfter) != len(segsBefore)+1 {
		t.Errorf("reopen appended into an old segment: %v -> %v", segsBefore, segsAfter)
	}
}

// TestStoreCorruptTailRecovery: a segment cut at any byte offset, as a
// crash mid-append leaves it, reopens to exactly the records whose closing
// brace lies inside the prefix; a torn tail is skipped and counted, and
// the store stays writable.
func TestStoreCorruptTailRecovery(t *testing.T) {
	// A nil value is a Delete; raw is the value as the store holds it.
	ops := []struct {
		key string
		v   any
		raw string
	}{
		{"a", map[string]int{"v": 1}, `{"v":1}`},
		{"html", "<b>&</b>", `"<b>&</b>"`},
		{"a", nil, ""},
		{"z", 3, "3"},
	}
	src := t.TempDir()
	s, err := Open(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		if op.v == nil {
			err = s.Delete(op.key)
		} else {
			err = s.Put(op.key, op.v)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := segmentNames(src)
	if len(segs) != 1 {
		t.Fatalf("want one segment, got %v", segs)
	}
	data, err := os.ReadFile(filepath.Join(src, segs[0]))
	if err != nil {
		t.Fatal(err)
	}
	// braces[i] is the offset of record i's closing brace.
	var braces []int
	for i := 0; i < len(data); i++ {
		if data[i] == '\n' {
			braces = append(braces, i-1)
		}
	}
	if len(braces) != len(ops) {
		t.Fatalf("segment has %d lines, want %d:\n%s", len(braces), len(ops), data)
	}

	check := func(r *Store, cut int, want map[string]string) {
		t.Helper()
		if r.Len() != len(want) {
			t.Errorf("cut %d: Len = %d, want %d", cut, r.Len(), len(want))
		}
		for k, v := range want {
			if got, ok := r.Get(k); !ok || string(got) != v {
				t.Errorf("cut %d: Get(%q) = %s, %t; want %s", cut, k, got, ok, v)
			}
		}
	}
	for cut := 0; cut <= len(data); cut++ {
		want := map[string]string{}
		complete, lineStart := 0, 0
		for i, op := range ops {
			if braces[i] >= cut {
				break
			}
			complete, lineStart = i+1, braces[i]+2
			if op.v == nil {
				delete(want, op.key)
			} else {
				want[op.key] = op.raw
			}
		}
		skipped := 0
		if complete < len(ops) && cut > lineStart {
			skipped = 1
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segs[0]), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := Open(dir)
		if err != nil {
			t.Fatalf("cut %d: a torn tail must not fail open: %v", cut, err)
		}
		check(r, cut, want)
		if r.SkippedTails() != skipped {
			t.Errorf("cut %d: SkippedTails = %d, want %d", cut, r.SkippedTails(), skipped)
		}
		if err := r.Put("new", cut); err != nil {
			t.Fatal(err)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		want["new"] = fmt.Sprint(cut)
		r, err = Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		check(r, cut, want)
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// tornSegment writes half of its first line and then fails, as a write
// that runs out of disk space partway does. Later writes go through. With
// noTruncate set, the store cannot cut the torn bytes back out; with
// noSync set, it cannot seal the segment either.
type tornSegment struct {
	segmentFile
	torn, noTruncate, noSync bool
}

func (f *tornSegment) Write(p []byte) (int, error) {
	if f.torn {
		return f.segmentFile.Write(p)
	}
	f.torn = true
	n, err := f.segmentFile.Write(p[:len(p)/2])
	if err == nil {
		err = errors.New("no space left on device")
	}
	return n, err
}

func (f *tornSegment) Truncate(size int64) error {
	if f.noTruncate {
		return errors.New("truncate not supported")
	}
	return f.segmentFile.Truncate(size)
}

func (f *tornSegment) Sync() error {
	if f.noSync {
		return errors.New("no space left on device")
	}
	return f.segmentFile.Sync()
}

// TestStoreTornAppendKeepsLaterRecords: an append whose write fails
// partway leaves nothing in front of later records, so a record appended
// and synced after it is still there on reopen. The segment is cut back
// to its last record, or, when it cannot be cut, left with the torn line
// last while appends move to a fresh segment.
func TestStoreTornAppendKeepsLaterRecords(t *testing.T) {
	for _, tc := range []struct {
		name               string
		noTruncate, noSync bool
		segs               int // segment files written
		skipped            int // torn tails replay skips
	}{
		{"truncate", false, false, 1, 0},
		{"roll", true, false, 2, 1},
		{"roll without seal", true, true, 2, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Put("a", 1); err != nil {
				t.Fatal(err)
			}
			s.mu.Lock()
			s.seg = &tornSegment{segmentFile: s.seg, noTruncate: tc.noTruncate, noSync: tc.noSync}
			s.mu.Unlock()
			if err := s.Put("b", 2); err == nil {
				t.Fatal("a failed write was not reported")
			}
			if _, ok := s.Get("b"); ok {
				t.Error("a failed write reached the index")
			}
			if err := s.Put("c", 3); err != nil {
				t.Fatal(err)
			}
			if err := s.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			r, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			_, a := r.Get("a")
			_, b := r.Get("b")
			_, c := r.Get("c")
			if !a || b || !c || r.SkippedTails() != tc.skipped {
				t.Errorf("after reopen a=%t b=%t c=%t skipped=%d; want a=true b=false c=true skipped=%d",
					a, b, c, r.SkippedTails(), tc.skipped)
			}
			if segs, _ := segmentNames(dir); len(segs) != tc.segs {
				t.Errorf("segments = %v, want %d", segs, tc.segs)
			}
		})
	}
}

// TestStoreGarbageLineRecovery: non-JSON garbage mid-file also stops the
// replay without failing the open.
func TestStoreGarbageLineRecovery(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "seg-000001.jsonl")
	content := `{"k":"good","v":1}` + "\n" + "!!garbage!!\n" + `{"k":"after","v":2}` + "\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, ok := s.Get("good"); !ok {
		t.Error("record before garbage lost")
	}
	if _, ok := s.Get("after"); ok {
		t.Error("record after garbage must be skipped (tail is untrusted)")
	}
	if s.SkippedTails() != 1 {
		t.Errorf("SkippedTails = %d", s.SkippedTails())
	}
}

// TestStoreConcurrentReadersDuringRoll: readers run lock-compatible with
// appends that force segment rolls; run with -race this is the
// concurrency pin for the store.
func TestStoreConcurrentReadersDuringRoll(t *testing.T) {
	s, err := OpenWithSegmentBytes(t.TempDir(), 64) // tiny: rolls constantly
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Put("stable", "value"); err != nil {
		t.Fatal(err)
	}
	const writes = 300
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if raw, ok := s.Get("stable"); !ok || string(raw) != `"value"` {
					t.Error("reader saw missing/garbled value during rolls")
					return
				}
				_, _ = s.Get("churn")
				_ = s.Len()
			}
		}()
	}
	for i := 0; i < writes; i++ {
		if err := s.Put("churn", i); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if raw, _ := s.Get("churn"); string(raw) != fmt.Sprintf("%d", writes-1) {
		t.Errorf("final churn value %s", raw)
	}
}

// TestStoreValueBytesSurviveReopen: the store keeps one form of each
// value. A value holding a RawMessage with whitespace and strings with
// HTML characters reads back the same bytes before and after a reopen,
// and the Observer saw those bytes too.
func TestStoreValueBytesSurviveReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var observed json.RawMessage
	s.Observer = func(key string, value json.RawMessage) { observed = value }
	v := struct {
		Note  string          `json:"note"`
		Table json.RawMessage `json:"table"`
	}{
		Note:  "depth >= t, T&F, a<b, line\u2028break",
		Table: json.RawMessage("{\n  \"cols\": [\"T&F\", \"a<b\"],\n  \"rows\": [ 1, 2 ]\n}\n"),
	}
	if err := s.Put("k", v); err != nil {
		t.Fatal(err)
	}
	before, ok := s.Get("k")
	if !ok {
		t.Fatal("value missing")
	}
	const want = `{"note":"depth >= t, T&F, a<b, line` + "\u2028" + `break","table":{"cols":["T&F","a<b"],"rows":[1,2]}}`
	if string(before) != want {
		t.Errorf("stored value\n got %s\nwant %s", before, want)
	}
	if !bytes.Equal(observed, before) {
		t.Errorf("Observer saw %s, index holds %s", observed, before)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if after, _ := r.Get("k"); !bytes.Equal(after, before) {
		t.Errorf("value changed across reopen:\nbefore %s\n after %s", before, after)
	}
}

// TestStoreRefusesWritesAfterClose: once closed, every write — Put,
// PutRaw, Delete, ImportSegment — returns ErrStoreClosed and creates no
// file, so a late handler cannot roll a segment nothing will sync or
// close. A second Close returns nil.
func TestStoreRefusesWritesAfterClose(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("a", 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	segment := []byte(`{"k":"b","v":2}` + "\n")
	for name, write := range map[string]func() error{
		"Put":    func() error { return s.Put("b", 2) },
		"PutRaw": func() error { return s.PutRaw("b", json.RawMessage("2")) },
		"Delete": func() error { return s.Delete("a") },
		"ImportSegment": func() error {
			_, err := s.ImportSegment("peer", "seg-000001.jsonl", segment)
			return err
		},
	} {
		if err := write(); !errors.Is(err, ErrStoreClosed) {
			t.Errorf("%s after Close: %v, want ErrStoreClosed", name, err)
		}
	}
	after, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before) {
		t.Errorf("writes after Close left files: %d entries, was %d", len(after), len(before))
	}
	if v, ok := s.Get("a"); !ok || string(v) != "1" {
		t.Errorf("index changed after Close: %s %v", v, ok)
	}
	if err := s.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

// TestStorePutRawChecksPeerBytes: PutRaw rejects what would not replay —
// empty, invalid or tombstone values and an empty key — and compacts a
// multi-line value, so every segment line parses.
func TestStorePutRawChecksPeerBytes(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, raw := range []string{"", "{", `{"a":1} x`, "null", " null\n"} {
		if err := s.PutRaw("k", json.RawMessage(raw)); err == nil {
			t.Errorf("PutRaw(%q) succeeded", raw)
		}
	}
	if err := s.PutRaw("", json.RawMessage("1")); err == nil {
		t.Error("PutRaw with an empty key succeeded")
	}
	if err := s.Delete(""); err == nil {
		t.Error("Delete of the empty key succeeded")
	}
	if err := s.PutRaw("k\n\"<&>", json.RawMessage("{\n \"a\" : [ 1 ,\t2 ]\n}")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("after", 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.SkippedTails() != 0 || r.Len() != 2 {
		t.Fatalf("reopened store: %d skipped tails, %d keys", r.SkippedTails(), r.Len())
	}
	if raw, _ := r.Get("k\n\"<&>"); string(raw) != `{"a":[1,2]}` {
		t.Errorf("PutRaw value %s, want it compacted", raw)
	}
}

// FuzzStoreRecord feeds arbitrary key and value bytes to PutRaw — the
// path peers' records take — between two fixed Puts. Either PutRaw
// refuses them (empty key, invalid JSON or a tombstone), or after Close
// and reopen every record reads back the bytes it held before and no
// segment tail is skipped: the line writer's escaping never breaks a
// line.
func FuzzStoreRecord(f *testing.F) {
	for _, seed := range []struct{ key, value string }{
		{"result/0123abcd", `{"a":1}`},
		{`quote"key`, `"v"`},
		{`back\slash\`, `[1, 2]`},
		{"new\nline\r\n", "{\n  \"a\": \"b\"\n}\n"},
		{"<html>&amp;", `{"note":"depth >= t","cols":["T&F"]}`},
		{"line\u2028para\u2029", "\"sep\u2028\u2029\""},
		{"ctl\x00\x1f\x7f\t", " {\"t\" :\t[ true , null ]} "},
		{"", `1`},
		{"tomb", " null\n"},
		{"torn", `{"a":`},
	} {
		f.Add(seed.key, []byte(seed.value))
	}
	f.Fuzz(func(t *testing.T, key string, value []byte) {
		if !utf8.ValidString(key) {
			// Local keys are hex and json.Decoder replaces invalid bytes
			// in peer keys, so no path delivers one.
			t.Skip()
		}
		dir := t.TempDir()
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Put("before", map[string]string{"key": key}); err != nil {
			t.Fatal(err)
		}
		rawErr := s.PutRaw(key, value)
		if err := s.Put("after", []string{key}); err != nil {
			t.Fatal(err)
		}
		var compact bytes.Buffer
		refusable := key == "" || json.Compact(&compact, value) != nil || compact.String() == "null"
		if rawErr != nil && !refusable {
			t.Fatalf("PutRaw(%q, %q) refused a valid record: %v", key, value, rawErr)
		}
		if rawErr == nil && refusable {
			t.Fatalf("PutRaw(%q, %q) accepted a record it must refuse", key, value)
		}
		want := make(map[string]string)
		for _, k := range []string{"before", key, "after"} {
			if v, ok := s.Get(k); ok {
				want[k] = string(v)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		if r.SkippedTails() != 0 {
			t.Fatalf("PutRaw(%q, %q): reopen skipped %d segment tails", key, value, r.SkippedTails())
		}
		if r.Len() != len(want) {
			t.Fatalf("PutRaw(%q, %q): reopened store holds %d keys, want %d", key, value, r.Len(), len(want))
		}
		for k, v := range want {
			if got, _ := r.Get(k); string(got) != v {
				t.Fatalf("PutRaw(%q, %q): %q reads back %q after reopen, %q before", key, value, k, got, v)
			}
		}
	})
}

// naiveReplay is the reference for segment replay: the lines of data as a
// bufio.Scanner splits them (on '\n', one trailing '\r' dropped), empty
// lines skipped, replay stopping at the first line that does not parse as
// a record or has an empty key, and a null or missing value deleting its
// key.
func naiveReplay(data []byte) map[string]string {
	index := make(map[string]string)
	for _, line := range bytes.Split(data, []byte("\n")) {
		line = bytes.TrimSuffix(line, []byte("\r"))
		if len(line) == 0 {
			continue
		}
		var rec struct {
			K string          `json:"k"`
			V json.RawMessage `json:"v"`
		}
		if json.Unmarshal(line, &rec) != nil || rec.K == "" {
			break
		}
		if len(rec.V) == 0 || string(rec.V) == "null" {
			delete(index, rec.K)
		} else {
			index[rec.K] = string(rec.V)
		}
	}
	return index
}

// FuzzStoreReplay writes arbitrary bytes as a store's only segment and
// opens it: Open must neither panic nor fail, and the recovered index
// must equal naiveReplay of the bytes. A key put afterwards must survive
// a close and a reopen beside the recovered index, so an append behind a
// torn or garbage tail is not lost.
func FuzzStoreReplay(f *testing.F) {
	dir := f.TempDir()
	s, err := Open(dir)
	if err != nil {
		f.Fatal(err)
	}
	for i, v := range []any{map[string]int{"a": 1}, "two", []int{3}, nil, 5.5} {
		if err := s.Put(fmt.Sprintf("result/%d", i), v); err != nil {
			f.Fatal(err)
		}
	}
	if err := s.Delete("result/2"); err != nil {
		f.Fatal(err)
	}
	if err := s.Close(); err != nil {
		f.Fatal(err)
	}
	seg, err := os.ReadFile(filepath.Join(dir, "seg-000001.jsonl"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seg)
	f.Add(seg[:len(seg)*2/3])
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "seg-000001.jsonl"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		want := naiveReplay(data)
		check := func(s *Store, when string) {
			t.Helper()
			if s.Len() != len(want) {
				t.Fatalf("%s: store holds %d keys, naive replay %d", when, s.Len(), len(want))
			}
			for k, v := range want {
				if got, ok := s.Get(k); !ok || string(got) != v {
					t.Fatalf("%s: %q reads %q (present %v), naive replay %q", when, k, got, ok, v)
				}
			}
		}
		check(s, "open")
		fresh := "fresh"
		for want[fresh] != "" {
			fresh += "'"
		}
		if err := s.Put(fresh, 1); err != nil {
			t.Fatal(err)
		}
		want[fresh] = "1"
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := Open(dir)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer r.Close()
		check(r, "reopen after a put")
	})
}

// naiveImport is the reference for segment import into a store holding
// local: the records of data as naiveReplay reads its lines, each
// applied only when its key is still absent and its value is not a
// tombstone. It returns the applied records.
func naiveImport(local map[string]string, data []byte) map[string]string {
	applied := make(map[string]string)
	for _, line := range bytes.Split(data, []byte("\n")) {
		line = bytes.TrimSuffix(line, []byte("\r"))
		if len(line) == 0 {
			continue
		}
		var rec struct {
			K string          `json:"k"`
			V json.RawMessage `json:"v"`
		}
		if json.Unmarshal(line, &rec) != nil || rec.K == "" {
			break
		}
		if _, ok := local[rec.K]; ok || len(rec.V) == 0 || string(rec.V) == "null" {
			continue
		}
		if _, ok := applied[rec.K]; !ok {
			applied[rec.K] = string(rec.V)
		}
	}
	return applied
}

// FuzzImportSegment imports arbitrary bytes as a peer's segment into a
// store holding local records: the import must not fail or panic, must
// apply exactly the records naiveImport applies, and a later Get must
// serve each applied record's bytes while local records keep theirs.
// Seeds are a segment written by Put and Delete, that segment cut short,
// and the segment in encoding/json's spacing.
func FuzzImportSegment(f *testing.F) {
	dir := f.TempDir()
	s, err := Open(dir)
	if err != nil {
		f.Fatal(err)
	}
	for i, v := range []any{map[string]int{"a": 1}, "two", []int{3}, nil, 5.5} {
		if err := s.Put(fmt.Sprintf("result/%d", i), v); err != nil {
			f.Fatal(err)
		}
	}
	if err := s.Delete("result/2"); err != nil {
		f.Fatal(err)
	}
	if err := s.Put("local", "peer"); err != nil {
		f.Fatal(err)
	}
	if err := s.Close(); err != nil {
		f.Fatal(err)
	}
	seg, err := os.ReadFile(filepath.Join(dir, "seg-000001.jsonl"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seg)
	f.Add(seg[:len(seg)*2/3])
	f.Add(bytes.ReplaceAll(seg, []byte(`,"v":`), []byte(`, "v": `)))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		local := map[string]string{"local": `"mine"`, "result/0": `0`}
		for k, v := range local {
			if err := s.PutRaw(k, json.RawMessage(v)); err != nil {
				t.Fatal(err)
			}
		}
		n, err := s.ImportSegment("peer", "seg-000001.jsonl", data)
		if err != nil {
			t.Fatalf("ImportSegment: %v", err)
		}
		want := naiveImport(local, data)
		if n != len(want) || s.Len() != len(local)+len(want) {
			t.Fatalf("applied %d records, store holds %d keys; naive import applies %d to %d local", n, s.Len(), len(want), len(local))
		}
		for _, m := range []map[string]string{local, want} {
			for k, v := range m {
				if got, ok := s.Get(k); !ok || string(got) != v {
					t.Fatalf("%q reads %q (present %v), want %q", k, got, ok, v)
				}
			}
		}
	})
}
