package main

import (
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"syscall"
	"testing"
	"time"

	"cbde/internal/core"
)

func TestBadFlags(t *testing.T) {
	if err := run([]string{"-bogus"}); err == nil {
		t.Error("expected flag parse error")
	}
	// A structurally invalid origin URL fails before listening.
	if err := run([]string{"-origin", "http://", "-addr", "127.0.0.1:0"}); err == nil {
		t.Error("expected error for bad origin URL")
	}
	// The NDJSON snapshot flags are gone, not silently ignored.
	if err := run([]string{"-state", "/tmp/x.json"}); err == nil {
		t.Error("expected -state to be rejected")
	}
	// A -mode typo is an error, not a class-based server; it fails before
	// anything listens.
	if err := run([]string{"-mode", "classles", "-addr", "127.0.0.1:0"}); err == nil || !strings.Contains(err.Error(), "classles") {
		t.Errorf("run with -mode classles = %v, want an unknown-mode error", err)
	}
}

// TestSigtermDrainsThenCheckpoints runs the real server loop: SIGTERM must
// drain the listener, checkpoint every class into -spill-dir, close the
// tier and return from run — and a second boot on the same directory
// recovers the classes.
func TestSigtermDrainsThenCheckpoints(t *testing.T) {
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, "<html>%s for %s</html>", strings.Repeat("shared template ", 200), r.URL.Path)
	}))
	defer origin.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	dir := t.TempDir()

	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", addr, "-origin", origin.URL, "-spill-dir", dir, "-anon-m", "0", "-trace-ring", "0"})
	}()
	get := func(path string) (*http.Response, error) {
		req, _ := http.NewRequest("GET", "http://"+addr+path, nil)
		req.Header.Set("X-CBDE-Capable", "1")
		req.Header.Set("X-CBDE-User", "u1")
		return http.DefaultClient.Do(req)
	}
	// Up means the signal handler is installed: run registers it before
	// it opens the listener.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if resp, err := get("/catalog/1"); err == nil {
			resp.Body.Close()
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("server never came up: %v", err)
		}
	}
	if resp, err := get("/catalog/2"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v after SIGTERM, want nil", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("run did not return after SIGTERM")
	}
	if _, err := get("/catalog/1"); err == nil {
		t.Error("listener still accepting after shutdown")
	}

	eng, err := core.NewEngine(core.Config{SpillDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if ts := eng.SpillStats(); ts.SpilledClasses == 0 {
		t.Fatalf("shutdown checkpoint left no class records: %+v", ts)
	}
	if gs, _ := eng.GroupingStats(); gs.Classes == 0 || gs.URLs == 0 {
		t.Fatalf("shutdown checkpoint left no grouping: %+v", gs)
	}
}
