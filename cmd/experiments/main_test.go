package main

import (
	"bytes"
	"testing"

	"repro/internal/experiments"
	"repro/internal/jobs"
)

// TestStoreReplayPrintsSameBytes: with -store, a table replayed from a
// reopened store prints the same bytes, as JSON and as text, as the run
// without a store. F5's notes and E13's columns hold HTML characters
// (">=", "T&F"), which the store keeps unescaped.
func TestStoreReplayPrintsSameBytes(t *testing.T) {
	opts := experiments.Options{Seed: 1, Quick: true}
	dir := t.TempDir()
	for _, id := range []string{"F5", "E13"} {
		for _, asJSON := range []bool{true, false} {
			var want bytes.Buffer
			if err := emit(&want, nil, id, opts, asJSON); err != nil {
				t.Fatal(err)
			}
			// The first pass computes and stores the table, the second
			// replays it from the reopened store.
			for pass := 0; pass < 2; pass++ {
				store, err := jobs.Open(dir)
				if err != nil {
					t.Fatal(err)
				}
				exec := &jobs.Executor{Store: store, Experiments: experiments.JobRunner()}
				var got bytes.Buffer
				err = emit(&got, exec, id, opts, asJSON)
				if cerr := store.Close(); err == nil {
					err = cerr
				}
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Bytes(), want.Bytes()) {
					t.Errorf("%s json=%v pass %d: store output differs from the run without a store:\n got %q\nwant %q", id, asJSON, pass, got.Bytes(), want.Bytes())
				}
			}
		}
	}
}
