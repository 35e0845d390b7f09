// Command snailsd is the SNAILS serving daemon: a long-running HTTP JSON
// API over the benchmark artifacts. It exposes NL-to-SQL inference with
// execution-match evaluation (/v1/infer), identifier naturalness
// classification (/v1/classify), abbreviation/expansion (/v1/modify),
// schema-linking scoring (/v1/link), and the /healthz + /metricsz
// observability pair.
//
// SIGINT/SIGTERM trigger a graceful shutdown: the listener stops accepting,
// in-flight and queued requests finish, and the process exits
// 0. See DESIGN.md's "Serving layer" section for the architecture.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/snails-bench/snails/internal/backend"
	expconfig "github.com/snails-bench/snails/internal/config"
	"github.com/snails-bench/snails/internal/obs"
	"github.com/snails-bench/snails/internal/server"
)

// config is the daemon's flag set, split from main for testability.
type config struct {
	addr         string
	timeout      time.Duration
	cacheEntries int
	workers      int
	preload      bool
	drainGrace   time.Duration
	traceBuffer  int
	canonEvery   int
	pprof        bool
	configPath   string
	logFormat    string
	logLevel     string

	// Cluster topology (DESIGN.md §8). -cluster turns the process into the
	// stateless router; -cluster-shards spawns and supervises N local
	// workers, -cluster-peers routes to externally-managed shards instead.
	// -shard-id marks a worker process and stamps its responses.
	cluster       bool
	clusterShards int
	clusterPeers  string
	shardID       string
}

// parseFlags parses argv into a config using an isolated FlagSet.
func parseFlags(args []string, stderr io.Writer) (*config, error) {
	fs := flag.NewFlagSet("snailsd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := &config{}
	fs.StringVar(&cfg.addr, "addr", ":8080", "listen address")
	fs.DurationVar(&cfg.timeout, "timeout", 10*time.Second, "per-request deadline (504 on expiry)")
	fs.IntVar(&cfg.cacheEntries, "cache", 4096, "response cache entries (negative disables caching)")
	fs.IntVar(&cfg.workers, "workers", 0, "inference worker pool size (0 = GOMAXPROCS)")
	fs.BoolVar(&cfg.preload, "preload", true, "build all databases and train the classifier before listening")
	fs.DurationVar(&cfg.drainGrace, "drain-grace", 30*time.Second, "maximum time to drain in-flight work on shutdown")
	fs.IntVar(&cfg.traceBuffer, "trace-buffer", 0, "request traces kept for /debugz/traces (0 = default 256, negative disables tracing)")
	fs.IntVar(&cfg.canonEvery, "canonical-log-every", 0, "promote every Nth canonical request log line to info (0 = default 256, negative never promotes)")
	fs.BoolVar(&cfg.pprof, "pprof", false, "expose net/http/pprof under /debug/pprof/")
	fs.StringVar(&cfg.configPath, "config", "", "experiment config whose backends are registered for /v1/infer alongside the synthetic family (JSON; see configs/)")
	fs.StringVar(&cfg.logFormat, "log-format", "text", "structured log encoding ("+obs.LogFormats+")")
	fs.StringVar(&cfg.logLevel, "log-level", "info", "minimum log level (debug|info|warn|error)")
	fs.BoolVar(&cfg.cluster, "cluster", false, "run as a cluster router instead of a single server")
	fs.IntVar(&cfg.clusterShards, "cluster-shards", 2, "worker shards to spawn and supervise locally (with -cluster)")
	fs.StringVar(&cfg.clusterPeers, "cluster-peers", "", "comma-separated shard addresses to route to instead of spawning (with -cluster)")
	fs.StringVar(&cfg.shardID, "shard-id", "", "shard name stamped on responses (set by -cluster when spawning workers)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if cfg.cluster && cfg.shardID != "" {
		err := fmt.Errorf("-cluster and -shard-id are mutually exclusive (the router spawns workers itself)")
		fmt.Fprintln(stderr, "snailsd:", err)
		return nil, err
	}
	if cfg.cluster && cfg.clusterPeers == "" && cfg.clusterShards < 1 {
		err := fmt.Errorf("-cluster-shards must be >= 1, got %d", cfg.clusterShards)
		fmt.Fprintln(stderr, "snailsd:", err)
		return nil, err
	}
	if !cfg.cluster && cfg.clusterPeers != "" {
		err := fmt.Errorf("-cluster-peers requires -cluster")
		fmt.Fprintln(stderr, "snailsd:", err)
		return nil, err
	}
	if _, err := obs.NewLogger(io.Discard, cfg.logFormat, cfg.logLevel); err != nil {
		fmt.Fprintln(stderr, "snailsd:", err)
		return nil, err
	}
	return cfg, nil
}

func (c *config) serverConfig(log *slog.Logger) server.Config {
	return server.Config{
		RequestTimeout:    c.timeout,
		CacheEntries:      c.cacheEntries,
		Workers:           c.workers,
		TraceBuffer:       c.traceBuffer,
		CanonicalLogEvery: c.canonEvery,
		EnablePprof:       c.pprof,
		ShardID:           c.shardID,
		Logger:            log,
	}
}

// run starts the daemon and blocks until a shutdown signal arrives and the
// drain completes; the returned code is the process exit status. ready, if
// non-nil, receives the bound listen address once the server is accepting —
// tests and the loadgen harness use it to avoid polling.
func run(cfg *config, stderr io.Writer, ready chan<- string, signals <-chan os.Signal) int {
	// The daemon's logger also becomes the process default so structured
	// debug records from the pipeline packages (workflow parse failures,
	// sweep outcomes) share the handler and its request-scoped attributes.
	log, err := obs.NewLogger(stderr, cfg.logFormat, cfg.logLevel)
	if err != nil {
		fmt.Fprintln(stderr, "snailsd:", err)
		return 2
	}
	slog.SetDefault(log)

	scfg := cfg.serverConfig(log)
	if cfg.configPath != "" {
		exp, err := expconfig.Load(cfg.configPath)
		if err != nil {
			log.Error("config load failed", slog.String("err", err.Error()))
			return 2
		}
		backends, closeBackends, err := backend.BuildAll(exp)
		if err != nil {
			log.Error("backend build failed", slog.String("err", err.Error()))
			return 2
		}
		defer closeBackends()
		scfg.Backends = backends
		names := make([]string, len(backends))
		for i, be := range backends {
			names[i] = be.Name()
		}
		log.Info("registered configured backends", slog.Any("backends", names))
	}
	s := server.New(scfg)
	if cfg.preload {
		start := time.Now()
		s.Preload()
		log.Info("preloaded collection", slog.Duration("took", time.Since(start).Round(time.Millisecond)))
	}

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		log.Error("listen failed", slog.String("addr", cfg.addr), slog.String("err", err.Error()))
		return 1
	}
	httpSrv := &http.Server{Handler: s}

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	log.Info("listening", slog.String("addr", ln.Addr().String()))
	if ready != nil {
		ready <- ln.Addr().String()
	}

	select {
	case sig := <-signals:
		log.Info("shutdown signal received, draining", slog.String("signal", sig.String()))
	case err := <-serveErr:
		log.Error("serve failed", slog.String("err", err.Error()))
		return 1
	}

	// Graceful shutdown: flip /healthz to draining and reject new API
	// requests, stop the listener and wait for in-flight handlers, then
	// run any still-queued inference jobs and stop the worker pool.
	s.BeginShutdown()
	ctx, cancel := context.WithTimeout(context.Background(), cfg.drainGrace)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Error("shutdown did not finish within the drain grace", slog.String("err", err.Error()))
		s.Drain()
		return 1
	}
	s.Drain()
	log.Info("drained, exiting")
	return 0
}

func main() {
	cfg, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		os.Exit(2)
	}
	signals := make(chan os.Signal, 1)
	signal.Notify(signals, os.Interrupt, syscall.SIGTERM)
	if cfg.cluster {
		os.Exit(runCluster(cfg, os.Stderr, nil, signals))
	}
	os.Exit(run(cfg, os.Stderr, nil, signals))
}
