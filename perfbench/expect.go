package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/experiments"
	"repro/internal/sim"
)

// recordedSeeds is the number of input sets with recorded outputs. A
// workload seed selects one of them (inputSeed), so every run's output
// can be checked against a recorded answer.
const recordedSeeds = 8

// inputSeed maps a workload seed onto the recorded input seeds 1..8:
// seeds 1..8 map to themselves, and the pattern repeats.
func inputSeed(seed uint64) uint64 {
	return 1 + (seed+recordedSeeds-1)%recordedSeeds
}

// expectations are the outputs recorded for each input seed.
type expectations struct {
	// KernelSteps is the simulated-step total of one full-size
	// kernel-sparse batch, by input seed.
	KernelSteps map[string]int `json:"kernel_steps"`
	// Tables holds, by input seed, the digest of each experiment table's
	// canonical JSON at full size.
	Tables map[string]map[string]string `json:"tables"`
}

//go:embed expect.json
var expectJSON []byte

// expected is the parsed expect.json.
var expected = mustExpectations(expectJSON)

// mustExpectations parses the embedded recording; a malformed file is a
// build defect.
func mustExpectations(data []byte) expectations {
	var e expectations
	if err := json.Unmarshal(data, &e); err != nil {
		panic(fmt.Sprintf("perfbench: expect.json: %v", err))
	}
	return e
}

// tableDigest is the SHA-256 of a table's canonical JSON, as written by
// `experiments -json`, truncated to 16 hex digits.
func tableDigest(tbl *experiments.Table) (string, error) {
	var buf bytes.Buffer
	if err := tbl.WriteJSON(&buf); err != nil {
		return "", err
	}
	return digest(buf.Bytes()), nil
}

// digest is the truncated SHA-256 used for all recorded outputs.
func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:8])
}

// recordExpectations recomputes expect.json for every input seed and
// writes it to w. It runs every experiment at full size eight times, so
// it takes minutes.
func recordExpectations(w io.Writer) error {
	e := expectations{KernelSteps: map[string]int{}, Tables: map[string]map[string]string{}}
	size := kernelSizeFor(false)
	for s := uint64(1); s <= recordedSeeds; s++ {
		key := fmt.Sprint(s)
		p, err := buildKernel(size, s)
		if err != nil {
			return err
		}
		outs, err := runKernelBatch(p, p.cfg, sim.NewEngine())
		if err != nil {
			return err
		}
		steps := 0
		for _, o := range outs {
			if !o.delivered {
				return fmt.Errorf("kernel input seed %d: a trial left worms undelivered", s)
			}
			steps += o.steps
		}
		e.KernelSteps[key] = steps
		e.Tables[key] = map[string]string{}
		for _, id := range experiments.IDs() {
			tbl, err := experiments.Run(id, experiments.Options{Seed: s})
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", id, s, err)
			}
			d, err := tableDigest(tbl)
			if err != nil {
				return err
			}
			e.Tables[key][id] = d
		}
	}
	out, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(out, '\n'))
	return err
}
