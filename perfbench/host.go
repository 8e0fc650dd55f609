package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// hostStamp identifies where and on what a result was measured. Two
// results are comparable only when sameHost holds for their stamps.
type hostStamp struct {
	CPU        string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OSArch     string `json:"os_arch"`
	Commit     string `json:"commit"`
	Seed       uint64 `json:"seed"`
}

// stampHost records the machine, toolchain and source the run uses. The
// commit comes from PERFBENCH_COMMIT (set by run.sh from git when the
// checkout is a repository); otherwise it is a digest of the Go sources
// under root, so a result still names the code it measured.
func stampHost(root string, seed uint64) hostStamp {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" || commit == "unknown" {
		if d, err := sourceDigest(root); err == nil {
			commit = "src-" + d[:16]
		} else {
			commit = "unknown"
		}
	}
	return hostStamp{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		OSArch:     runtime.GOOS + "/" + runtime.GOARCH,
		Commit:     commit,
		Seed:       seed,
	}
}

// sameHost reports whether two stamps come from the same machine class
// and toolchain. Commit and seed may differ: comparing two commits on
// one host is the point of a comparison.
func sameHost(a, b hostStamp) bool {
	return a.CPU == b.CPU && a.NProc == b.NProc && a.GOMAXPROCS == b.GOMAXPROCS &&
		a.GoVersion == b.GoVersion && a.OSArch == b.OSArch
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes the names and contents of the Go sources and
// go.mod files under root, skipping hidden directories and testdata.
func sourceDigest(root string) (string, error) {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(name, ".go") || name == "go.mod" {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(files)
	h := sha256.New()
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s\n", filepath.ToSlash(path))
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// ledgerEntry is one run as written to the result ledger.
type ledgerEntry struct {
	Host      hostStamp         `json:"host"`
	Workload  string            `json:"workload"`
	Trace     bool              `json:"trace"`
	Seconds   int               `json:"seconds"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Samples   map[string]int    `json:"samples,omitempty"`
	Report    []string          `json:"report,omitempty"`
}

// readLedger loads every *.json ledger entry in dir.
func readLedger(dir string) ([]ledgerEntry, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	var out []ledgerEntry
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var e ledgerEntry
		if err := json.Unmarshal(data, &e); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if e.Workload != "" && !e.Trace {
			out = append(out, e)
		}
	}
	return out, nil
}

// boundSpec is the part of BENCHMARK.json a comparison needs.
type boundSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareLedgers judges head against base, workload by workload, with the
// end-to-end bounds of BENCHMARK.json. A metric regresses when the head
// median is worse than the base median by more than its bound. When the
// two sides do not share one host stamp the verdict is "no baseline for
// this host": numbers from different machines neither pass nor fail.
func compareLedgers(w io.Writer, base, head []ledgerEntry, spec boundSpec) (regressions int, comparable bool) {
	if len(base) == 0 || len(head) == 0 {
		fmt.Fprintln(w, "no baseline for this host: a side has no results")
		return 0, false
	}
	ref := base[0].Host
	for _, e := range append(append([]ledgerEntry(nil), base...), head...) {
		if !sameHost(ref, e.Host) {
			fmt.Fprintf(w, "no baseline for this host: %q/%d cpus/GOMAXPROCS %d/%s differs from %q/%d cpus/GOMAXPROCS %d/%s\n",
				e.Host.CPU, e.Host.NProc, e.Host.GOMAXPROCS, e.Host.GoVersion,
				ref.CPU, ref.NProc, ref.GOMAXPROCS, ref.GoVersion)
			return 0, false
		}
	}
	byWorkload := func(es []ledgerEntry) map[string][]ledgerEntry {
		m := make(map[string][]ledgerEntry)
		for _, e := range es {
			m[e.Workload] = append(m[e.Workload], e)
		}
		return m
	}
	b, h := byWorkload(base), byWorkload(head)
	names := make([]string, 0, len(h))
	for name := range h {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, wl := range names {
		if len(b[wl]) == 0 {
			fmt.Fprintf(w, "%s: no baseline runs\n", wl)
			continue
		}
		for _, m := range spec.EndToEnd {
			bv, hv := metricValues(b[wl], m.Name), metricValues(h[wl], m.Name)
			if len(bv) == 0 || len(hv) == 0 {
				continue
			}
			bm, hm := median(bv), median(hv)
			change := (hm - bm) / bm
			worse := change
			if m.Better == "higher" {
				worse = -change
			}
			verdict := "ok"
			if worse > m.Bound {
				verdict = "REGRESSION"
				regressions++
			}
			fmt.Fprintf(w, "%-14s %-16s base %.6g (n=%d, spread %.3f)  head %.6g (n=%d, spread %.3f)  %+.1f%%  bound %.0f%%  %s\n",
				wl, m.Name, bm, len(bv), spread(bv), hm, len(hv), spread(hv), 100*change, 100*m.Bound, verdict)
		}
	}
	return regressions, true
}

// metricValues collects one metric across ledger entries.
func metricValues(es []ledgerEntry, name string) []float64 {
	var out []float64
	for _, e := range es {
		if m, ok := e.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}
