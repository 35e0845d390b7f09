// Package clustertest is the in-process cluster rig: a real cluster.Router
// and N real server.Server shards on loopback listeners, with fault
// injection hooks — abrupt shard kill, same-port restart, graceful drain,
// slow and dropped health probes. The fault-injection test suite runs on it
// under -race, and snailsbench -loadgen uses it to measure the per-shard-
// count throughput table without spawning child processes.
//
// It is a normal (non-test) package on purpose: everything it builds is
// production code wired together on loopback, so exercising it from a
// benchmark driver is as legitimate as from a test.
package clustertest

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/snails-bench/snails/internal/cluster"
	"github.com/snails-bench/snails/internal/datasets"
	"github.com/snails-bench/snails/internal/server"
)

// Universe is the benchmark placement-key universe over the built-in
// databases.
func Universe() []string { return cluster.DefaultUniverse() }

// Options parameterizes Start.
type Options struct {
	// Shards is the worker count (default 2).
	Shards int
	// ShardConfig templates every shard's server.Config; the rig overrides
	// ShardID per shard. The zero value is the production default.
	ShardConfig server.Config
	// Router carries router overrides; the rig fills Shards, Universe, and
	// the probe-fault transport, and lowers the health/retry timings to
	// test speed where unset.
	Router cluster.Config
	// Preload eagerly builds every database and trains the classifier
	// before the cluster is declared ready, so measurements and fault
	// schedules see no cold-start noise.
	Preload bool
}

// Cluster is a running in-process cluster.
type Cluster struct {
	Router    *cluster.Router
	RouterURL string

	opts      Options
	routerLn  net.Listener
	routerSrv *http.Server
	shards    []*shardSlot
	faults    *probeFaults
}

// shardSlot tracks one shard's listener and server across kill/restart
// cycles; the address is fixed at first bind so a restart rejoins the ring
// at the same identity.
type shardSlot struct {
	idx  int
	addr string

	mu      sync.Mutex
	srv     *server.Server
	httpSrv *http.Server
	ln      net.Listener
	running bool
}

// probeFaults is the injectable health-probe transport: per-shard-address
// modes applied before delegating to the real transport.
type probeFaults struct {
	base  http.RoundTripper
	mu    sync.Mutex
	modes map[string]*probeMode // keyed by shard host:port
}

type probeMode struct {
	drop  atomic.Bool
	delay atomic.Int64 // nanoseconds
}

func (p *probeFaults) modeFor(addr string) *probeMode {
	p.mu.Lock()
	defer p.mu.Unlock()
	m, ok := p.modes[addr]
	if !ok {
		m = &probeMode{}
		p.modes[addr] = m
	}
	return m
}

func (p *probeFaults) RoundTrip(r *http.Request) (*http.Response, error) {
	m := p.modeFor(r.URL.Host)
	if d := m.delay.Load(); d > 0 {
		select {
		case <-time.After(time.Duration(d)):
		case <-r.Context().Done():
			return nil, r.Context().Err()
		}
	}
	if m.drop.Load() {
		return nil, fmt.Errorf("clustertest: probe to %s dropped by fault injection", r.URL.Host)
	}
	return p.base.RoundTrip(r)
}

// Start builds and starts the cluster, blocking until every shard has been
// probed alive.
func Start(opts Options) (*Cluster, error) {
	if opts.Shards <= 0 {
		opts.Shards = 2
	}
	c := &Cluster{opts: opts}
	c.faults = &probeFaults{base: http.DefaultTransport, modes: map[string]*probeMode{}}

	if opts.Preload {
		datasets.All()
	}

	shardRefs := make([]cluster.Shard, opts.Shards)
	for i := 0; i < opts.Shards; i++ {
		slot := &shardSlot{idx: i}
		if err := slot.start(opts.ShardConfig, ""); err != nil {
			c.Stop()
			return nil, err
		}
		if opts.Preload {
			slot.srv.Preload()
		}
		c.shards = append(c.shards, slot)
		shardRefs[i] = cluster.Shard{Name: "shard-" + strconv.Itoa(i), Base: "http://" + slot.addr}
	}

	rcfg := opts.Router
	rcfg.Shards = shardRefs
	rcfg.Universe = Universe()
	if rcfg.HealthInterval <= 0 {
		rcfg.HealthInterval = 25 * time.Millisecond
	}
	if rcfg.ProbeTimeout <= 0 {
		rcfg.ProbeTimeout = 500 * time.Millisecond
	}
	if rcfg.RetryWait <= 0 {
		rcfg.RetryWait = 25 * time.Millisecond
	}
	if rcfg.RetryBudget <= 0 {
		rcfg.RetryBudget = 10
	}
	rcfg.ProbeTransport = c.faults
	rt, err := cluster.NewRouter(rcfg)
	if err != nil {
		c.Stop()
		return nil, err
	}
	c.Router = rt

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		c.Stop()
		return nil, err
	}
	c.routerLn = ln
	c.routerSrv = &http.Server{Handler: rt}
	go c.routerSrv.Serve(ln)
	c.RouterURL = "http://" + ln.Addr().String()

	deadline := time.Now().Add(10 * time.Second)
	for rt.AliveShards() < opts.Shards {
		if time.Now().After(deadline) {
			c.Stop()
			return nil, fmt.Errorf("clustertest: %d/%d shards alive after 10s", rt.AliveShards(), opts.Shards)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return c, nil
}

// start binds the slot's listener (a fixed addr on restart, any port on
// first bind) and begins serving a fresh server.Server.
func (s *shardSlot) start(cfg server.Config, addr string) error {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	var ln net.Listener
	var err error
	// A restart re-binds the port the killed listener just released; retry
	// briefly to ride out the OS-level release.
	for tries := 0; ; tries++ {
		ln, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if tries >= 100 {
			return fmt.Errorf("clustertest: shard %d could not bind %s: %w", s.idx, addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	cfg.ShardID = "shard-" + strconv.Itoa(s.idx)
	srv := server.New(cfg)
	httpSrv := &http.Server{Handler: srv}
	go httpSrv.Serve(ln)

	s.mu.Lock()
	s.srv, s.httpSrv, s.ln = srv, httpSrv, ln
	s.addr = ln.Addr().String()
	s.running = true
	s.mu.Unlock()
	return nil
}

// ShardURL returns shard i's base URL (stable across restarts).
func (c *Cluster) ShardURL(i int) string { return "http://" + c.shards[i].addr }

// KillShard abruptly terminates shard i: the listener and every open
// connection close immediately, with no drain — the in-process equivalent
// of SIGKILL. In-flight requests on that shard surface as transport errors
// to the router, which retries them elsewhere.
func (c *Cluster) KillShard(i int) {
	s := c.shards[i]
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.running {
		return
	}
	s.httpSrv.Close()
	s.running = false
}

// RestartShard brings a killed shard back on the same address with a fresh
// server (empty caches — a restarted process remembers nothing), then kicks
// the router's probe so rejoin is immediate.
func (c *Cluster) RestartShard(i int) error {
	s := c.shards[i]
	s.mu.Lock()
	running := s.running
	addr := s.addr
	s.mu.Unlock()
	if running {
		return fmt.Errorf("clustertest: shard %d is already running", i)
	}
	if err := s.start(c.opts.ShardConfig, addr); err != nil {
		return err
	}
	if c.opts.Preload {
		s.srv.Preload()
	}
	c.Router.KickProbe(i)
	return nil
}

// DrainShard gracefully drains shard i: health flips to draining (the
// router routes around it), in-flight and queued requests finish, then the
// listener closes. Returns once the drain completes.
func (c *Cluster) DrainShard(i int, grace time.Duration) error {
	s := c.shards[i]
	s.mu.Lock()
	if !s.running {
		s.mu.Unlock()
		return nil
	}
	srv, httpSrv := s.srv, s.httpSrv
	s.running = false
	s.mu.Unlock()

	srv.BeginShutdown()
	ctx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	err := httpSrv.Shutdown(ctx)
	srv.Drain()
	return err
}

// DropProbes makes shard i's health probes fail at the transport (a dead
// health port on an otherwise-serving shard).
func (c *Cluster) DropProbes(i int, drop bool) {
	c.faults.modeFor(c.shards[i].addr).drop.Store(drop)
}

// SlowProbes delays shard i's health probes by d (0 restores normal
// probing). Delays beyond the router's probe timeout read as failures.
func (c *Cluster) SlowProbes(i int, d time.Duration) {
	c.faults.modeFor(c.shards[i].addr).delay.Store(int64(d))
}

// WaitAlive blocks until exactly n shards are routable or the timeout
// expires.
func (c *Cluster) WaitAlive(n int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if c.Router.AliveShards() == n {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("clustertest: %d shards alive, want %d", c.Router.AliveShards(), n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Stop tears the whole cluster down: router first (drains in-flight
// proxies), then every still-running shard, gracefully.
func (c *Cluster) Stop() {
	if c.Router != nil {
		c.Router.BeginShutdown()
	}
	if c.routerSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		c.routerSrv.Shutdown(ctx)
		cancel()
	}
	if c.Router != nil {
		c.Router.Drain()
	}
	for _, s := range c.shards {
		s.mu.Lock()
		running := s.running
		srv, httpSrv := s.srv, s.httpSrv
		s.running = false
		s.mu.Unlock()
		if running {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			httpSrv.Shutdown(ctx)
			cancel()
			srv.Drain()
		}
	}
}
