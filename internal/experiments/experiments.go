// Package experiments implements the benchmark harness: one runnable
// experiment per theorem, figure and ablation of the paper, as indexed in
// DESIGN.md. Each experiment returns a Table whose rows are the series the
// paper's bound predicts; EXPERIMENTS.md records paper-vs-measured.
//
// All experiments are driven by a single seed and a Quick flag (smaller
// ladders for tests and benches), and print deterministically.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/canon"
)

// Options control an experiment run.
type Options struct {
	// Seed drives all randomness; equal seeds reproduce tables exactly.
	Seed uint64
	// Trials is the number of Monte-Carlo repetitions per configuration
	// (0 means the experiment's default).
	Trials int
	// Quick shrinks problem-size ladders for tests and benchmarks.
	Quick bool
}

func (o Options) trials(def int) int {
	if o.Trials > 0 {
		return o.Trials
	}
	if o.Quick && def > 3 {
		return 3
	}
	return def
}

// Table is a printable experiment result. Rows hold the raw values passed
// to AddRow; formatting happens only at text-print time (CellString), so
// WriteJSON keeps full numeric precision for downstream plotting.
type Table struct {
	ID      string
	Title   string
	Notes   []string
	Columns []string
	Rows    [][]any
}

// AddRow appends a row of raw, unformatted values.
func (t *Table) AddRow(vals ...any) {
	t.Rows = append(t.Rows, append([]any(nil), vals...))
}

// CellString renders one cell for aligned-text display: float64 values as
// %.2f, everything else with %v.
func CellString(v any) string {
	if x, ok := v.(float64); ok {
		return fmt.Sprintf("%.2f", x)
	}
	return fmt.Sprintf("%v", v)
}

// Fprint renders the table as aligned text.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	for _, n := range t.Notes {
		fmt.Fprintf(w, "   %s\n", n)
	}
	rows := make([][]string, len(t.Rows))
	for i, r := range t.Rows {
		rows[i] = make([]string, len(r))
		for j, cell := range r {
			rows[i][j] = CellString(cell)
		}
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range rows {
		for i, cell := range r {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	printRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintf(w, "   %s\n", strings.Join(parts, "  "))
	}
	printRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	printRow(sep)
	for _, r := range rows {
		printRow(r)
	}
	fmt.Fprintln(w)
}

// WriteJSON renders the table as a JSON object with id, title, notes,
// columns and rows — for downstream plotting tools. Numeric cells are
// emitted as JSON numbers at full precision (they are only rounded for
// the text rendering). The encoding is canonical (internal/canon): the
// same table always serializes to the same bytes, so stored experiment
// results can be compared and content-addressed byte-for-byte.
func (t *Table) WriteJSON(w io.Writer) error {
	b, err := canon.MarshalIndent(struct {
		ID      string   `json:"id"`
		Title   string   `json:"title"`
		Notes   []string `json:"notes"`
		Columns []string `json:"columns"`
		Rows    [][]any  `json:"rows"`
	}{t.ID, t.Title, t.Notes, t.Columns, t.Rows}, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Runner is an experiment entry point.
type Runner func(Options) (*Table, error)

// Registry maps experiment IDs to their runners.
var Registry = map[string]Runner{
	"E1":  E1LeveledUpper,
	"E2":  E2StaggeredLower,
	"E3":  E3ShortcutFreeUpper,
	"E4":  E4CyclicLower,
	"E5":  E5PriorityVsServeFirst,
	"E6":  E6CongestionDecay,
	"E7":  E7NodeSymmetric,
	"E8":  E8Meshes,
	"E9":  E9ButterflyQ,
	"E10": E10Conversion,
	"E11": E11SparseConversion,
	"E12": E12MultiHop,
	"E13": E13RWAContrast,
	"E14": E14Lemma210,
	"E15": E15DynamicLoad,
	"E16": E16ElectronicBaseline,
	"E17": E17AdversarialPermutations,
	"A1":  A1Schedules,
	"A2":  A2Wreckage,
	"A3":  A3Acks,
	"A4":  A4TiePolicy,
	"A5":  A5Constants,
	"A6":  A6WavelengthChoice,
	"A7":  A7Synchronization,
	"F4":  F4Witness,
	"F5":  F5WitnessDepths,
	"R1":  R1MeshRobustness,
	"R2":  R2ButterflyRobustness,
	"W1":  W1Saturation,
	"S1":  S1Scorecard,
}

// IDs returns the registered experiment identifiers in order.
func IDs() []string {
	ids := make([]string, 0, len(Registry))
	for id := range Registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Run executes one experiment by ID.
func Run(id string, o Options) (*Table, error) {
	r, ok := Registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, IDs())
	}
	return r(o)
}
