// Cluster mode: snailsd -cluster runs the stateless router from
// internal/cluster in front of N worker shards. With -cluster-shards the
// daemon spawns the workers itself (re-exec'ing its own binary with
// -shard-id and a loopback -addr) and supervises them — a crashed worker is
// restarted with backoff on the same address and rejoins the ring. With
// -cluster-peers the shards already exist somewhere else and the router
// only proxies. SIGTERM drains top-down: the router stops accepting,
// in-flight proxies finish, then spawned workers get SIGTERM and drain
// their own in-flight requests before the supervisor reaps them.
package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/snails-bench/snails/internal/cluster"
	"github.com/snails-bench/snails/internal/obs"
)

// worker is one spawned shard process under supervision.
type worker struct {
	idx  int
	name string
	addr string

	mu  sync.Mutex
	cmd *exec.Cmd
}

// workerArgs builds the child argv: the parent's serving flags minus
// everything cluster- and listener-related. The experiment config is
// forwarded so every shard registers the same backends the router was
// started with.
func (c *config) workerArgs(name, addr string) []string {
	args := []string{
		"-addr", addr,
		"-shard-id", name,
		"-timeout", c.timeout.String(),
		"-cache", strconv.Itoa(c.cacheEntries),
		"-workers", strconv.Itoa(c.workers),
		"-preload=" + strconv.FormatBool(c.preload),
		"-drain-grace", c.drainGrace.String(),
		"-trace-buffer", strconv.Itoa(c.traceBuffer),
		"-canonical-log-every", strconv.Itoa(c.canonEvery),
		"-pprof=" + strconv.FormatBool(c.pprof),
		"-log-format", c.logFormat,
		"-log-level", c.logLevel,
	}
	if c.configPath != "" {
		args = append(args, "-config", c.configPath)
	}
	return args
}

// allocAddrs reserves n distinct loopback ports by binding and releasing
// them. The window between release and the child's bind is racy in theory;
// in practice nothing else grabs an ephemeral port that fast, and a child
// that does lose the race exits and is respawned on a fresh address by the
// supervisor.
func allocAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	lns := make([]net.Listener, 0, n)
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("allocate shard port: %w", err)
		}
		lns = append(lns, ln)
		addrs[i] = ln.Addr().String()
	}
	return addrs, nil
}

// spawn starts (or restarts) the worker process and reports its PID to the
// router so /metricsz exposes it.
func (w *worker) spawn(exe string, cfg *config, rt *cluster.Router, log *slog.Logger) error {
	cmd := exec.Command(exe, cfg.workerArgs(w.name, w.addr)...)
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("spawn %s: %w", w.name, err)
	}
	w.mu.Lock()
	w.cmd = cmd
	w.mu.Unlock()
	rt.SetPID(w.idx, cmd.Process.Pid)
	rt.KickProbe(w.idx)
	log.Info("shard spawned", slog.String("shard", w.name),
		slog.String("addr", w.addr), slog.Int("pid", cmd.Process.Pid))
	return nil
}

// signal forwards sig to the running child, if any.
func (w *worker) signal(sig os.Signal) {
	w.mu.Lock()
	cmd := w.cmd
	w.mu.Unlock()
	if cmd != nil && cmd.Process != nil {
		cmd.Process.Signal(sig)
	}
}

// wait blocks until the current child exits.
func (w *worker) wait() error {
	w.mu.Lock()
	cmd := w.cmd
	w.mu.Unlock()
	if cmd == nil {
		return nil
	}
	return cmd.Wait()
}

// supervise restarts the worker whenever it exits outside a shutdown, with
// exponential backoff (reset after a healthy minute) so a crash-looping
// shard cannot spin the supervisor.
func supervise(w *worker, exe string, cfg *config, rt *cluster.Router,
	log *slog.Logger, shuttingDown *atomic.Bool, done *sync.WaitGroup) {
	defer done.Done()
	backoff := 250 * time.Millisecond
	const maxBackoff = 5 * time.Second
	for {
		started := time.Now()
		err := w.wait()
		if shuttingDown.Load() {
			return
		}
		rt.KickProbe(w.idx) // fail fast: probe sees the dead port immediately
		if time.Since(started) > time.Minute {
			backoff = 250 * time.Millisecond
		}
		log.Warn("shard exited, restarting",
			slog.String("shard", w.name),
			slog.String("err", fmt.Sprint(err)),
			slog.Duration("backoff", backoff))
		time.Sleep(backoff)
		if backoff *= 2; backoff > maxBackoff {
			backoff = maxBackoff
		}
		if shuttingDown.Load() {
			return
		}
		if err := w.spawn(exe, cfg, rt, log); err != nil {
			log.Error("shard respawn failed", slog.String("shard", w.name), slog.String("err", err.Error()))
		}
	}
}

// runCluster is run()'s counterpart for -cluster mode: it stands up the
// router (and, unless -cluster-peers is set, the worker fleet) and blocks
// until a shutdown signal arrives and the full top-down drain completes.
func runCluster(cfg *config, stderr io.Writer, ready chan<- string, signals <-chan os.Signal) int {
	log, err := obs.NewLogger(stderr, cfg.logFormat, cfg.logLevel)
	if err != nil {
		fmt.Fprintln(stderr, "snailsd:", err)
		return 2
	}
	slog.SetDefault(log)

	var workers []*worker
	var shards []cluster.Shard
	spawned := cfg.clusterPeers == ""
	if spawned {
		addrs, err := allocAddrs(cfg.clusterShards)
		if err != nil {
			log.Error("cluster start failed", slog.String("err", err.Error()))
			return 1
		}
		for i, addr := range addrs {
			name := "shard-" + strconv.Itoa(i)
			workers = append(workers, &worker{idx: i, name: name, addr: addr})
			shards = append(shards, cluster.Shard{Name: name, Base: "http://" + addr})
		}
	} else {
		for i, addr := range strings.Split(cfg.clusterPeers, ",") {
			addr = strings.TrimSpace(addr)
			base := addr
			if !strings.Contains(base, "://") {
				base = "http://" + base
			}
			shards = append(shards, cluster.Shard{Name: "shard-" + strconv.Itoa(i), Base: base})
		}
	}

	rt, err := cluster.NewRouter(cluster.Config{
		Shards:      shards,
		Universe:    cluster.DefaultUniverse(),
		TraceBuffer: cfg.traceBuffer,
		Logger:      log,
	})
	if err != nil {
		log.Error("cluster start failed", slog.String("err", err.Error()))
		return 1
	}

	var shuttingDown atomic.Bool
	var reaped sync.WaitGroup
	exe := ""
	if spawned {
		exe, err = os.Executable()
		if err != nil {
			log.Error("cannot locate own binary to spawn shards", slog.String("err", err.Error()))
			return 1
		}
		for _, w := range workers {
			if err := w.spawn(exe, cfg, rt, log); err != nil {
				log.Error("cluster start failed", slog.String("err", err.Error()))
				shuttingDown.Store(true)
				for _, other := range workers {
					other.signal(os.Kill)
				}
				return 1
			}
			reaped.Add(1)
			go supervise(w, exe, cfg, rt, log, &shuttingDown, &reaped)
		}
	}

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		log.Error("listen failed", slog.String("addr", cfg.addr), slog.String("err", err.Error()))
		shuttingDown.Store(true)
		for _, w := range workers {
			w.signal(os.Kill)
		}
		return 1
	}
	httpSrv := &http.Server{Handler: rt}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	log.Info("cluster router listening",
		slog.String("addr", ln.Addr().String()),
		slog.Int("shards", len(shards)),
		slog.Bool("spawned", spawned))

	// Declare readiness once every shard answers its health probe, so the
	// first request never lands on a still-preloading fleet. A fleet that
	// cannot come up within the deadline is reported but still served —
	// degraded routing beats refusing to start when one peer is down.
	readyDeadline := time.Now().Add(2 * time.Minute)
	for rt.AliveShards() < len(shards) {
		if time.Now().After(readyDeadline) {
			log.Warn("not all shards alive at startup",
				slog.Int("alive", rt.AliveShards()), slog.Int("shards", len(shards)))
			break
		}
		time.Sleep(25 * time.Millisecond)
	}
	log.Info("cluster ready", slog.Int("alive", rt.AliveShards()), slog.Int("shards", len(shards)))
	if ready != nil {
		ready <- ln.Addr().String()
	}

	select {
	case sig := <-signals:
		log.Info("shutdown signal received, draining cluster", slog.String("signal", sig.String()))
	case err := <-serveErr:
		log.Error("serve failed", slog.String("err", err.Error()))
		shuttingDown.Store(true)
		for _, w := range workers {
			w.signal(os.Kill)
		}
		return 1
	}

	// Top-down drain: stop accepting, finish in-flight proxies, then hand
	// each worker its own graceful shutdown and wait for the fleet.
	shuttingDown.Store(true)
	rt.BeginShutdown()
	ctx, cancel := context.WithTimeout(context.Background(), cfg.drainGrace)
	defer cancel()
	code := 0
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Error("router shutdown did not finish within the drain grace", slog.String("err", err.Error()))
		code = 1
	}
	rt.Drain()
	for _, w := range workers {
		w.signal(os.Interrupt)
	}
	fleetDone := make(chan struct{})
	go func() {
		reaped.Wait()
		close(fleetDone)
	}()
	if len(workers) > 0 {
		select {
		case <-fleetDone:
		case <-time.After(cfg.drainGrace):
			log.Error("worker fleet did not drain within the grace; killing")
			for _, w := range workers {
				w.signal(os.Kill)
			}
			<-fleetDone
			code = 1
		}
	}
	log.Info("cluster drained, exiting")
	return code
}
