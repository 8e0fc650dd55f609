package jobs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/sim"
)

// Stores written before the per-link telemetry tables were removed hold
// route results and checkpoints whose telemetry still carries them.
// testdata/ keeps two such records of goldenRouteSpec(4), written by that
// code: its result, and its checkpoint after two of its four trials. The
// digests are the ones TestGoldenRouteResultBytes and
// TestGoldenCheckpointBytes pinned for that layout.
const (
	oldLayoutRouteResultSHA = "b454a5ba25343229e3f0a0d299043390ceb0744aba192e4330e0418db6423f9b"
	oldLayoutCheckpointSHA  = "002d71dcda499496fd5e27da9d1a63118449300c8e2b0ce00c862ef0f954bdad"
)

// oldLayoutRecord reads one of the older layout's records from testdata
// and checks that it is the record its digest pinned.
func oldLayoutRecord(t *testing.T, name, sha string) json.RawMessage {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if got := sha256Hex(b); got != sha {
		t.Fatalf("testdata/%s: sha256 %s, want %s", name, got, sha)
	}
	return b
}

// TestWorkerServesLookupHitBytes: a result the worker finds through
// Executor.Lookup, the cluster's read-repair hook, is served as the
// bytes it was decoded from, not re-encoded; a later submit answered from
// the local copy the lookup left serves the same bytes. A record in an
// older layout is where the two encodings differ.
func TestWorkerServesLookupHitBytes(t *testing.T) {
	old := oldLayoutRecord(t, "old-layout-route-result.json", oldLayoutRouteResultSHA)
	spec := goldenRouteSpec(4)
	key := mustKey(t, spec)
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	lookup := func(storeKey string) (json.RawMessage, bool) {
		if storeKey == ResultKey(key) {
			return old, true
		}
		return nil, false
	}
	for i, exec := range []*Executor{{Store: store, Lookup: lookup}, {Store: store}} {
		s := NewScheduler(exec, Options{})
		st, err := s.Submit(spec, 0)
		if err != nil {
			t.Fatal(err)
		}
		if st := waitDone(t, s, st.Key); st.State != StateDone || !st.FromCache {
			t.Fatalf("submit %d: %+v, want a cache hit", i, st)
		}
		raw, _, err := s.ResultJSON(key)
		s.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, old) {
			t.Errorf("submit %d served %d bytes (sha256 %s), want the %d bytes found (sha256 %s)",
				i, len(raw), sha256Hex(raw), len(old), oldLayoutRouteResultSHA)
		}
	}
}

// TestOldLayoutStoreStillWorks: a store holding records in the older
// layout still opens and works. Its hits serve their old bytes, tables
// included, and its checkpoint resumes, since encoding/json ignores the
// removed fields, to the bytes of a run with no store.
func TestOldLayoutStoreStillWorks(t *testing.T) {
	oldResult := oldLayoutRecord(t, "old-layout-route-result.json", oldLayoutRouteResultSHA)
	oldCheckpoint := oldLayoutRecord(t, "old-layout-route-checkpoint.json", oldLayoutCheckpointSHA)
	spec := goldenRouteSpec(4)
	key := mustKey(t, spec)
	plain, _, err := (&Executor{}).Run(spec, sim.NewEngine(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := resultBytes(t, plain)

	dir := t.TempDir()
	store, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []struct {
		key string
		raw json.RawMessage
	}{{resultKey(key), oldResult}, {checkpointKey(key), oldCheckpoint}} {
		if err := store.PutRaw(rec.key, rec.raw); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	if store, err = Open(dir); err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	for name, rec := range map[string]json.RawMessage{resultKey(key): oldResult, checkpointKey(key): oldCheckpoint} {
		if got, ok := store.Get(name); !ok || !bytes.Equal(got, rec) {
			t.Fatalf("reopened store: %s is %d bytes (present %v), want the %d bytes put", name, len(got), ok, len(rec))
		}
	}

	s := NewScheduler(&Executor{Store: store}, Options{})
	defer s.Close()
	st, err := s.Submit(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !st.FromCache {
		t.Fatalf("submit against the old result: %+v, want a cache hit", st)
	}
	if raw, _, err := s.ResultJSON(key); err != nil || !bytes.Equal(raw, oldResult) {
		t.Fatalf("old hit served %d bytes (%v), want its %d stored bytes", len(raw), err, len(oldResult))
	}

	// With the result gone only the checkpoint can answer: the sweep
	// resumes after its two trials.
	if err := store.Delete(resultKey(key)); err != nil {
		t.Fatal(err)
	}
	resumedAt := -1
	res, fromCache, err := (&Executor{Store: store}).Run(spec, sim.NewEngine(), func(done, total int) {
		if resumedAt < 0 {
			resumedAt = done
		}
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fromCache || resumedAt != 2 {
		t.Fatalf("from cache %v, resumed at trial %d: want a resume at 2", fromCache, resumedAt)
	}
	if got := resultBytes(t, res); !bytes.Equal(got, want) {
		t.Errorf("resumed result (%d bytes) differs from a run with no store (%d bytes)", len(got), len(want))
	}
}
