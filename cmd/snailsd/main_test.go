package main

import (
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

func TestParseFlagsDefaults(t *testing.T) {
	cfg, err := parseFlags(nil, io.Discard)
	if err != nil {
		t.Fatalf("parseFlags(nil): %v", err)
	}
	if cfg.addr != ":8080" || cfg.timeout != 10*time.Second || cfg.cacheEntries != 4096 {
		t.Errorf("unexpected defaults: %+v", cfg)
	}
	if cfg.workers != 0 {
		t.Errorf("unexpected worker pool default: %+v", cfg)
	}
	if !cfg.preload || cfg.drainGrace != 30*time.Second {
		t.Errorf("unexpected lifecycle defaults: %+v", cfg)
	}
	if cfg.logFormat != "text" || cfg.logLevel != "info" {
		t.Errorf("unexpected logging defaults: %+v", cfg)
	}
	log := slog.New(slog.NewTextHandler(io.Discard, nil))
	sc := cfg.serverConfig(log)
	if sc.RequestTimeout != cfg.timeout || sc.CacheEntries != cfg.cacheEntries || sc.Workers != cfg.workers {
		t.Errorf("serverConfig() lost fields: %+v", sc)
	}
	if sc.Logger != log {
		t.Error("serverConfig() dropped the logger")
	}
}

func TestParseFlagsRejects(t *testing.T) {
	for _, args := range [][]string{
		{"-nosuchflag"},
		{"positional"},
		{"-timeout", "notaduration"},
		{"-log-format", "yaml"},
		{"-log-level", "loud"},
	} {
		if _, err := parseFlags(args, io.Discard); err == nil {
			t.Errorf("parseFlags(%v) accepted, want error", args)
		}
	}
}

// TestRunGracefulShutdown boots the daemon on a loopback port, verifies it
// serves, then delivers a synthetic SIGTERM and asserts the drain path exits
// with status 0 — the acceptance criterion for graceful shutdown.
func TestRunGracefulShutdown(t *testing.T) {
	cfg, err := parseFlags([]string{"-addr", "127.0.0.1:0", "-preload=false"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	ready := make(chan string, 1)
	signals := make(chan os.Signal, 1)
	code := make(chan int, 1)
	go func() { code <- run(cfg, io.Discard, ready, signals) }()

	var addr string
	select {
	case addr = <-ready:
	case <-time.After(30 * time.Second):
		t.Fatal("server never became ready")
	}

	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", resp.StatusCode)
	}

	signals <- syscall.SIGTERM
	select {
	case c := <-code:
		if c != 0 {
			t.Errorf("run exited %d after SIGTERM, want 0", c)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run did not exit after SIGTERM")
	}

	// The listener is gone after the drain.
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Error("server still accepting after drained exit")
	}
}

// TestRunBadAddr asserts a listen failure reports exit code 1 instead of
// hanging.
func TestRunBadAddr(t *testing.T) {
	cfg, err := parseFlags([]string{"-addr", "256.256.256.256:1", "-preload=false"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if code := run(cfg, io.Discard, nil, make(chan os.Signal)); code != 1 {
		t.Errorf("run with bad addr = %d, want 1", code)
	}
}

// TestRunWithExperimentConfig boots the daemon with -config pointing at a
// mock-http experiment and drives /v1/infer through the configured wire
// backend; the synthetic family must stay reachable next to it.
func TestRunWithExperimentConfig(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "exp.json")
	if err := os.WriteFile(path, []byte(`{
		"name": "daemon-smoke",
		"backends": [{"id": "mock", "type": "mock-http", "model": "mock-model"}]
	}`), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg, err := parseFlags([]string{"-addr", "127.0.0.1:0", "-preload=false", "-config", path}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	ready := make(chan string, 1)
	signals := make(chan os.Signal, 1)
	code := make(chan int, 1)
	go func() { code <- run(cfg, io.Discard, ready, signals) }()

	var addr string
	select {
	case addr = <-ready:
	case <-time.After(30 * time.Second):
		t.Fatal("server never became ready")
	}

	for _, model := range []string{"mock", "gpt-4o"} {
		body := strings.NewReader(`{"db":"ASIS","model":"` + model + `","variant":"native","question_id":1}`)
		resp, err := http.Post("http://"+addr+"/v1/infer", "application/json", body)
		if err != nil {
			t.Fatalf("infer via %s: %v", model, err)
		}
		doc, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("infer via %s = %d: %s", model, resp.StatusCode, doc)
		}
		if !strings.Contains(string(doc), `"model":"`+model+`"`) {
			t.Errorf("infer via %s response does not echo the backend id: %s", model, doc)
		}
	}

	signals <- syscall.SIGTERM
	select {
	case c := <-code:
		if c != 0 {
			t.Errorf("run exited %d after SIGTERM, want 0", c)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run did not exit after SIGTERM")
	}
}

// TestRunBadConfig: an unreadable or invalid -config exits 2 before
// listening.
func TestRunBadConfig(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"backends": [{"type": "warp-drive"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{filepath.Join(dir, "missing.json"), bad} {
		cfg, err := parseFlags([]string{"-addr", "127.0.0.1:0", "-preload=false", "-config", path}, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if code := run(cfg, io.Discard, nil, make(chan os.Signal)); code != 2 {
			t.Errorf("run with config %s = %d, want 2", path, code)
		}
	}
}
