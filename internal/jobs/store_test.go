package jobs

import (
	"bytes"
	"encoding/json"
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

// TestStoreCorruptTailRecovery: a segment truncated mid-record keeps its
// valid prefix; the torn tail is skipped and the store stays usable.
func TestStoreCorruptTailRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := s.Put(fmt.Sprintf("key-%d", i), map[string]int{"v": i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := segmentNames(dir)
	if len(segs) != 1 {
		t.Fatalf("want one segment, got %v", segs)
	}
	path := filepath.Join(dir, segs[0])
	// Truncate mid-record: crash while appending key-9.
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b[:len(b)-9], 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := Open(dir)
	if err != nil {
		t.Fatalf("corrupt tail must not fail open: %v", err)
	}
	defer r.Close()
	if r.Len() != 9 {
		t.Errorf("Len = %d after torn tail, want 9", r.Len())
	}
	if _, ok := r.Get("key-8"); !ok {
		t.Error("intact prefix record lost")
	}
	if _, ok := r.Get("key-9"); ok {
		t.Error("torn record resurrected")
	}
	if r.SkippedTails() != 1 {
		t.Errorf("SkippedTails = %d, want 1", r.SkippedTails())
	}
	// The store must stay writable, into a fresh segment.
	if err := r.Put("key-9", map[string]int{"v": 9}); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 10 {
		t.Errorf("Len = %d after repair write", r.Len())
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
