package main

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"github.com/snails-bench/snails/internal/server"
)

func TestParseFlagsCluster(t *testing.T) {
	cfg, err := parseFlags([]string{"-cluster", "-cluster-shards", "4"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.cluster || cfg.clusterShards != 4 {
		t.Errorf("cluster flags lost: %+v", cfg)
	}

	cfg, err = parseFlags([]string{"-cluster", "-cluster-peers", "127.0.0.1:1,127.0.0.1:2"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.clusterPeers != "127.0.0.1:1,127.0.0.1:2" {
		t.Errorf("cluster peers lost: %+v", cfg)
	}

	for _, args := range [][]string{
		{"-cluster", "-shard-id", "shard-0"}, // router is never a shard
		{"-cluster", "-cluster-shards", "0"}, // must spawn at least one
		{"-cluster-peers", "127.0.0.1:1"},    // peers require -cluster
	} {
		if _, err := parseFlags(args, io.Discard); err == nil {
			t.Errorf("parseFlags(%v) accepted, want error", args)
		}
	}
}

// workerArgs must round-trip through parseFlags: whatever the router passes
// to a spawned shard has to be a valid worker invocation.
func TestWorkerArgsRoundTrip(t *testing.T) {
	parent, err := parseFlags([]string{"-cluster", "-cache", "99", "-timeout", "7s", "-preload=false",
		"-canonical-log-every", "17", "-pprof"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	child, err := parseFlags(parent.workerArgs("shard-3", "127.0.0.1:1234"), io.Discard)
	if err != nil {
		t.Fatalf("workerArgs do not parse: %v", err)
	}
	if child.shardID != "shard-3" || child.addr != "127.0.0.1:1234" {
		t.Errorf("worker identity lost: %+v", child)
	}
	if child.cacheEntries != 99 || child.timeout != 7*time.Second || child.preload {
		t.Errorf("serving flags not propagated: %+v", child)
	}
	if child.canonEvery != 17 || !child.pprof {
		t.Errorf("observability flags not propagated: canonical-log-every=%d pprof=%v", child.canonEvery, child.pprof)
	}
	if child.cluster {
		t.Error("worker must not inherit -cluster")
	}

	// The experiment config rides along so every shard registers the same
	// backends the router was started with — and stays absent otherwise.
	if child.configPath != "" {
		t.Errorf("worker inherited a config path that was never set: %q", child.configPath)
	}
	parent, err = parseFlags([]string{"-cluster", "-config", "configs/mock-http.json"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	child, err = parseFlags(parent.workerArgs("shard-0", "127.0.0.1:1234"), io.Discard)
	if err != nil {
		t.Fatalf("workerArgs with -config do not parse: %v", err)
	}
	if child.configPath != "configs/mock-http.json" {
		t.Errorf("config path not forwarded to the shard: %q", child.configPath)
	}
}

// TestRunClusterPeersGracefulShutdown boots the router in -cluster-peers
// mode against two in-process shards, proves it proxies and aggregates,
// then delivers SIGTERM and asserts the drain exits 0.
func TestRunClusterPeersGracefulShutdown(t *testing.T) {
	// Two real shards on loopback, managed by the test (peer mode means the
	// router does not own them).
	var peers []string
	for i := 0; i < 2; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		s := server.New(server.Config{ShardID: "peer"})
		httpSrv := &http.Server{Handler: s}
		go httpSrv.Serve(ln)
		t.Cleanup(func() { httpSrv.Close(); s.Drain() })
		peers = append(peers, ln.Addr().String())
	}

	cfg, err := parseFlags([]string{
		"-addr", "127.0.0.1:0",
		"-cluster", "-cluster-peers", strings.Join(peers, ","),
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}

	signals := make(chan os.Signal, 1)
	ready := make(chan string, 1)
	exit := make(chan int, 1)
	go func() { exit <- runCluster(cfg, io.Discard, ready, signals) }()

	var addr string
	select {
	case addr = <-ready:
	case <-time.After(30 * time.Second):
		t.Fatal("cluster router never became ready")
	}

	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Post("http://"+addr+"/v1/classify", "application/json",
		strings.NewReader(`{"identifiers":["vegetation_height"]}`))
	if err != nil {
		t.Fatalf("proxied request: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("proxied classify = %d, want 200", resp.StatusCode)
	}
	if shard := resp.Header.Get("X-Snails-Shard"); shard == "" {
		t.Error("proxied response missing X-Snails-Shard")
	}

	resp, err = client.Get("http://" + addr + "/metricsz")
	if err != nil {
		t.Fatalf("aggregated metricsz: %v", err)
	}
	var doc struct {
		Router struct {
			Shards      int `json:"shards"`
			AliveShards int `json:"alive_shards"`
		} `json:"router"`
	}
	err = json.NewDecoder(resp.Body).Decode(&doc)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("decode metricsz: %v", err)
	}
	if doc.Router.Shards != 2 || doc.Router.AliveShards != 2 {
		t.Errorf("router sees %d/%d shards alive, want 2/2", doc.Router.AliveShards, doc.Router.Shards)
	}

	signals <- syscall.SIGTERM
	select {
	case code := <-exit:
		if code != 0 {
			t.Errorf("cluster drain exited %d, want 0", code)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cluster did not drain after SIGTERM")
	}
}
