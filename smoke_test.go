package repro

// Smoke tests: every command and example must build, and the fast ones
// must run to completion with healthy output. These run the real
// binaries via `go run`, exercising the flag plumbing end to end.

import (
	"context"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// runBinary executes `go run <pkg> <args>` with a timeout and returns
// combined output.
func runBinary(t *testing.T, timeout time.Duration, pkg string, args ...string) string {
	t.Helper()
	cmd := exec.Command("go", append([]string{"run", pkg}, args...)...)
	done := make(chan struct{})
	var out []byte
	var err error
	go func() {
		out, err = cmd.CombinedOutput()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(timeout):
		_ = cmd.Process.Kill()
		t.Fatalf("%s timed out after %v", pkg, timeout)
	}
	if err != nil {
		t.Fatalf("%s failed: %v\n%s", pkg, err, out)
	}
	return string(out)
}

// runFailing builds pkg and runs it with args under a timeout, expecting
// exit status 1 (go run would report every failure, a panic too, as
// status 1), and returns its combined output.
func runFailing(t *testing.T, timeout time.Duration, pkg string, args ...string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), filepath.Base(pkg))
	if out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput(); err != nil {
		t.Fatalf("building %s: %v\n%s", pkg, err, out)
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	out, err := exec.CommandContext(ctx, bin, args...).CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("%s %v: %v, want exit status 1\n%s", pkg, args, err, out)
	}
	return string(out)
}

func TestSmokeCommands(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke tests build binaries")
	}
	cases := []struct {
		pkg  string
		args []string
		want string
	}{
		{"./cmd/optroute", []string{"-topo", "torus", "-side", "5", "-B", "2", "-L", "3"}, "all delivered: true"},
		{"./cmd/optroute", []string{"-topo", "hypercube", "-dim", "4", "-rule", "priority", "-convert", "-witness"}, "Claim 2.6 holds: true"},
		{"./cmd/optroute", []string{"-topo", "mesh", "-side", "5", "-hops", "2"}, "all delivered: true"},
		{"./cmd/experiments", []string{"-run", "A4", "-quick"}, "== A4:"},
		{"./cmd/experiments", []string{"-run", "A4", "-quick", "-json"}, "\"id\": \"A4\""},
		{"./cmd/experiments", []string{"-list"}, "E1"},
		{"./cmd/lowerbound", []string{"-kind", "cyclic", "-structures", "8", "-delta", "8"}, "all delivered: true"},
		{"./cmd/topogen", []string{"-topo", "butterfly", "-dim", "3", "-workload", "qfunc", "-dot"}, "graph \"butterfly(3)\""},
		{"./cmd/trace", []string{"-topo", "ring", "-size", "6", "-worms", "3", "-L", "2"}, "space-time diagram"},
		// Seed 12 draws a self-pair, which trace skips: the diagram must
		// still label worms as the event list numbers them ("worm 0:
		// delivered at 5" is the worm on 5->6).
		{"./cmd/trace", []string{"-seed", "12"}, "  5->6   w0 |...000..|"},
		{"./cmd/optnetd", []string{"-once", "cmd/optnetd/testdata/smoke.json"}, "\"aggregate\""},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(strings.TrimPrefix(tc.pkg, "./cmd/")+strings.Join(tc.args, "_"), func(t *testing.T) {
			out := runBinary(t, 2*time.Minute, tc.pkg, tc.args...)
			if !strings.Contains(out, tc.want) {
				t.Errorf("%s %v: output missing %q:\n%s", tc.pkg, tc.args, tc.want, out)
			}
		})
	}
	// Refused invocations: an unbuildable network, a misspelled name or a
	// count below 1 exits with status 1 and prints want as its error line,
	// not a panic and not a silent fallback to the default.
	refused := []struct {
		pkg  string
		args []string
		want string
	}{
		{"./cmd/optroute", []string{"-topo", "torus", "-side", "2"}, "optroute: jobs: cannot build the torus network"},
		{"./cmd/topogen", []string{"-topo", "hypercube", "-dim", "0"}, "topogen: jobs: cannot build the hypercube network"},
		{"./cmd/optroute", []string{"-rule", "priorty"}, "optroute: optical: unknown rule"},
		{"./cmd/optroute", []string{"-wreckage", "vanishh"}, "optroute: sim: unknown wreckage policy"},
		{"./cmd/lowerbound", []string{"-rule", "x"}, "lowerbound: optical: unknown rule"},
		{"./cmd/trace", []string{"-rule", "x"}, "trace: optical: unknown rule"},
		{"./cmd/optroute", []string{"-workload", "qfunc", "-q", "0"}, "optroute: -q 0 < 1"},
		{"./cmd/optroute", []string{"-hops", "0"}, "optroute: core: hops 0 < 1"},
		{"./cmd/topogen", []string{"-workload", "qfunc", "-q", "0"}, "topogen: -q 0 < 1"},
	}
	for _, tc := range refused {
		tc := tc
		t.Run(strings.TrimPrefix(tc.pkg, "./cmd/")+strings.Join(tc.args, "_"), func(t *testing.T) {
			out := runFailing(t, 2*time.Minute, tc.pkg, tc.args...)
			if !strings.Contains(out, tc.want) || strings.Contains(out, "panic:") || strings.Contains(out, "goroutine") {
				t.Errorf("%s %v: want the error line %q and no panic:\n%s", tc.pkg, tc.args, tc.want, out)
			}
		})
	}
}

func TestSmokeExamples(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke tests build binaries")
	}
	cases := []struct {
		pkg  string
		want string
	}{
		{"./examples/quickstart", "delivered all"},
		{"./examples/adversarial", "Claim 2.6"},
		{"./examples/supercomputer", "bit-reversal"},
		{"./examples/wavelengths", "routing time"},
		{"./examples/datacenter", "load(req/step)"},
		{"./examples/videoconf", "wavelengths  rounds"},
		{"./examples/faulty", "fault-free"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(strings.TrimPrefix(tc.pkg, "./examples/"), func(t *testing.T) {
			out := runBinary(t, 3*time.Minute, tc.pkg)
			if !strings.Contains(out, tc.want) {
				t.Errorf("%s: output missing %q:\n%s", tc.pkg, tc.want, out)
			}
		})
	}
}
