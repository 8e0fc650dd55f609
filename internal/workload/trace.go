package workload

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"repro/internal/canon"
	"repro/internal/paths"
	"repro/internal/sim"
)

// TraceVersion is the current trace-format version. Decoders reject
// other versions cleanly: replayability is a compatibility promise, and
// silently reinterpreting a future format would break it.
const TraceVersion = 1

// traceMagic opens every encoded trace.
var traceMagic = [4]byte{'O', 'W', 'T', 'R'}

// envelope layout: magic (4) | version uint16 BE (2) | payload length
// uint32 BE (4) | payload (canonical JSON) | SHA-256 of payload (32).
const (
	traceHeaderLen = 10
	traceSumLen    = sha256.Size
)

// Arrival is one request of a trace: at Step, node Src asks to send one
// message to node Dst. Cohort indexes the generating spec's cohort (for
// provenance and per-cohort reporting).
type Arrival struct {
	// Step is the arrival step in [0, Horizon).
	Step int `json:"step"`
	// Src is the source node.
	Src int `json:"src"`
	// Dst is the destination node (never equal to Src).
	Dst int `json:"dst"`
	// Cohort is the index of the generating cohort.
	Cohort int `json:"cohort"`
}

// Trace is a materialized workload: the full arrival list plus the
// generating spec for provenance. A trace is the replayable unit — its
// canonical encoding (internal/canon) is its content address, so equal
// workloads dedupe in the optnetd store and replay byte-identically.
type Trace struct {
	// Version is the trace-format version (TraceVersion).
	Version int `json:"version"`
	// Nodes is the node universe arrivals are drawn over.
	Nodes int `json:"nodes"`
	// Horizon is the generation horizon; every Step is below it.
	Horizon int `json:"horizon"`
	// Spec is the normalized generating spec (nil for hand-built traces).
	Spec *Spec `json:"spec"`
	// Arrivals are the requests in nondecreasing step order.
	Arrivals []Arrival `json:"arrivals"`
}

// Validate checks the trace's internal consistency: version, bounds,
// step ordering, self-pair freedom, and (when the generating spec is
// present) spec agreement.
func (t *Trace) Validate() error {
	if t == nil {
		return fmt.Errorf("workload: nil trace")
	}
	if t.Version != TraceVersion {
		return fmt.Errorf("workload: unsupported trace version %d (have %d)", t.Version, TraceVersion)
	}
	if t.Nodes < 2 || t.Nodes > maxNodes {
		return fmt.Errorf("workload: trace nodes %d out of range [2, %d]", t.Nodes, maxNodes)
	}
	if t.Horizon < 1 || t.Horizon > maxHorizon {
		return fmt.Errorf("workload: trace horizon %d out of range [1, %d]", t.Horizon, maxHorizon)
	}
	if len(t.Arrivals) > MaxTraceArrivals {
		return fmt.Errorf("workload: trace has %d arrivals, cap %d", len(t.Arrivals), MaxTraceArrivals)
	}
	cohorts := maxCohorts
	if t.Spec != nil {
		if err := t.Spec.Validate(); err != nil {
			return err
		}
		if t.Spec.Nodes != t.Nodes || t.Spec.Horizon != t.Horizon {
			return fmt.Errorf("workload: trace geometry %d/%d disagrees with its spec %d/%d",
				t.Nodes, t.Horizon, t.Spec.Nodes, t.Spec.Horizon)
		}
		cohorts = len(t.Spec.Cohorts)
	}
	prev := 0
	for i, a := range t.Arrivals {
		if a.Step < 0 || a.Step >= t.Horizon {
			return fmt.Errorf("workload: arrival %d step %d out of [0, %d)", i, a.Step, t.Horizon)
		}
		if a.Step < prev {
			return fmt.Errorf("workload: arrival %d step %d out of order (previous %d)", i, a.Step, prev)
		}
		prev = a.Step
		if a.Src < 0 || a.Src >= t.Nodes || a.Dst < 0 || a.Dst >= t.Nodes {
			return fmt.Errorf("workload: arrival %d pair (%d, %d) out of [0, %d)", i, a.Src, a.Dst, t.Nodes)
		}
		if a.Src == a.Dst {
			return fmt.Errorf("workload: arrival %d is self-addressed (node %d)", i, a.Src)
		}
		if a.Cohort < 0 || a.Cohort >= cohorts {
			return fmt.Errorf("workload: arrival %d cohort %d out of [0, %d)", i, a.Cohort, cohorts)
		}
	}
	return nil
}

// Key returns the trace's content address: the hex SHA-256 of its
// canonical encoding. Equal traces — independently generated or decoded
// from disk — share a key.
func (t *Trace) Key() (string, error) {
	if err := t.Validate(); err != nil {
		return "", err
	}
	return canon.Hash(t)
}

// Encode serializes the trace into the versioned envelope: a magic +
// version + length header, the canonical JSON payload, and a SHA-256
// payload checksum. The payload bytes are canonical, so Encode is
// deterministic and the encoding doubles as the content address's
// preimage.
func (t *Trace) Encode() ([]byte, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	payload, err := canon.Marshal(t)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, traceHeaderLen+len(payload)+traceSumLen)
	out = append(out, traceMagic[:]...)
	out = binary.BigEndian.AppendUint16(out, TraceVersion)
	out = binary.BigEndian.AppendUint32(out, uint32(len(payload)))
	out = append(out, payload...)
	sum := sha256.Sum256(payload)
	return append(out, sum[:]...), nil
}

// Decode parses an encoded trace. Corrupted, truncated, or
// version-bumped inputs are rejected with an error — never a panic —
// mirroring the job store's posture toward torn tails: damaged state is
// surfaced, not reinterpreted.
func Decode(data []byte) (*Trace, error) {
	if len(data) < traceHeaderLen+traceSumLen {
		return nil, fmt.Errorf("workload: trace truncated at %d bytes (header needs %d)", len(data), traceHeaderLen+traceSumLen)
	}
	if [4]byte(data[:4]) != traceMagic {
		return nil, fmt.Errorf("workload: bad trace magic %q", data[:4])
	}
	version := int(binary.BigEndian.Uint16(data[4:6]))
	if version != TraceVersion {
		return nil, fmt.Errorf("workload: unsupported trace version %d (have %d)", version, TraceVersion)
	}
	plen := int(binary.BigEndian.Uint32(data[6:10]))
	if plen != len(data)-traceHeaderLen-traceSumLen {
		return nil, fmt.Errorf("workload: trace payload length %d disagrees with input size %d", plen, len(data))
	}
	payload := data[traceHeaderLen : traceHeaderLen+plen]
	sum := sha256.Sum256(payload)
	if [traceSumLen]byte(data[traceHeaderLen+plen:]) != sum {
		return nil, fmt.Errorf("workload: trace checksum mismatch (corrupted payload)")
	}
	var t Trace
	if err := canon.Unmarshal(payload, &t); err != nil {
		return nil, fmt.Errorf("workload: trace payload: %w", err)
	}
	if t.Version != version {
		return nil, fmt.Errorf("workload: payload version %d disagrees with envelope %d", t.Version, version)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	// The format admits one spelling per trace: the payload must be the
	// canonical encoding, so an encoded trace's bytes are exactly its
	// content address's preimage.
	canonical, err := canon.Marshal(&t)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(payload, canonical) {
		return nil, fmt.Errorf("workload: trace payload is not in canonical form")
	}
	return &t, nil
}

// Requests materializes the trace against a routed network: one
// sim.Request per arrival, with the path chosen by the selector at the
// arrival's source/destination and IDs equal to arrival indices. Paths
// are fixed up front, as in the paper.
func (t *Trace) Requests(sel paths.Selector, length int) []sim.Request {
	reqs := make([]sim.Request, len(t.Arrivals))
	for i, a := range t.Arrivals {
		reqs[i] = sim.Request{
			ID:      i,
			Path:    sel(a.Src, a.Dst),
			Length:  length,
			Arrival: a.Step,
		}
	}
	return reqs
}

// Stats summarizes a trace for inspection tooling.
type Stats struct {
	// Arrivals is the total request count.
	Arrivals int
	// PerCohort counts requests per cohort index.
	PerCohort []int
	// OfferedLoad is Arrivals / Horizon in requests per step.
	OfferedLoad float64
	// PeakStep is the step with the most arrivals; PeakCount its count.
	PeakStep int
	// PeakCount is the arrival count of the peak step.
	PeakCount int
	// Sources and Destinations count distinct endpoints.
	Sources int
	// Destinations counts distinct destination nodes.
	Destinations int
	// TopDestShare is the fraction of arrivals targeting the most popular
	// destination — the fan-in concentration measure.
	TopDestShare float64
}

// Stats computes the trace's summary.
func (t *Trace) Stats() Stats {
	s := Stats{Arrivals: len(t.Arrivals), PeakStep: -1}
	if t.Horizon > 0 {
		s.OfferedLoad = float64(len(t.Arrivals)) / float64(t.Horizon)
	}
	maxCohort := 0
	for _, a := range t.Arrivals {
		if a.Cohort > maxCohort {
			maxCohort = a.Cohort
		}
	}
	s.PerCohort = make([]int, maxCohort+1)
	srcSeen := make([]bool, t.Nodes)
	dstCount := make([]int, t.Nodes)
	stepCount := make(map[int]int, 64)
	for _, a := range t.Arrivals {
		s.PerCohort[a.Cohort]++
		srcSeen[a.Src] = true
		dstCount[a.Dst]++
		stepCount[a.Step]++
		if c := stepCount[a.Step]; c > s.PeakCount || (c == s.PeakCount && (s.PeakStep < 0 || a.Step < s.PeakStep)) {
			s.PeakCount, s.PeakStep = c, a.Step
		}
	}
	topDest := 0
	for i := 0; i < t.Nodes; i++ {
		if srcSeen[i] {
			s.Sources++
		}
		if dstCount[i] > 0 {
			s.Destinations++
		}
		if dstCount[i] > topDest {
			topDest = dstCount[i]
		}
	}
	if len(t.Arrivals) > 0 {
		s.TopDestShare = float64(topDest) / float64(len(t.Arrivals))
	}
	return s
}
