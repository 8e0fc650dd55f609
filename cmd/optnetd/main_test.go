package main

import (
	"bytes"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

// TestSIGTERMShutsDownCleanly: a serving daemon stops on SIGTERM with exit
// status 0, so its deferred closes, the store's final fsync among them,
// have run.
func TestSIGTERMShutsDownCleanly(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke tests build binaries")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "optnetd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	if err := ln.Close(); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	cmd := exec.Command(bin, "-addr", addr, "-store", filepath.Join(dir, "store"))
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	// out may be read only once done has delivered.
	stopAndFail := func(msg string) {
		t.Helper()
		_ = cmd.Process.Kill()
		<-done
		t.Fatalf("%s\n%s", msg, out.String())
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get("http://" + addr + "/metrics")
		if err == nil {
			_ = resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			stopAndFail("optnetd did not serve /metrics within 10s")
		}
		time.Sleep(50 * time.Millisecond)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		stopAndFail("SIGTERM: " + err.Error())
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("optnetd exit after SIGTERM: %v\n%s", err, out.String())
		}
	case <-time.After(10 * time.Second):
		stopAndFail("optnetd still running 10s after SIGTERM")
	}
}
