package main

import (
	"math"
	"reflect"
	"testing"
	"time"

	"github.com/snails-bench/snails/internal/backend"
	"github.com/snails-bench/snails/internal/datasets"
	"github.com/snails-bench/snails/internal/experiments"
)

func TestTailQuantileCountsSamplesBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	cases := []struct {
		q          float64
		want       float64
		wantBeyond int
	}{
		{0.5, 500, 500},
		{0.99, 990, 10},
		{0.999, 999, 1},
		{1, 1000, 0},
	}
	for _, c := range cases {
		v, beyond := tailQuantile(xs, c.q)
		if v != c.want || beyond != c.wantBeyond {
			t.Errorf("tailQuantile(1..1000, %g) = %g with %d beyond, want %g with %d", c.q, v, beyond, c.want, c.wantBeyond)
		}
	}
	// p99.9 has ten samples beyond it from 10000 samples on, and not before.
	if _, b := tailQuantile(make([]float64, 10000), 0.999); b != 10 {
		t.Errorf("p99.9 of 10000 samples has %d beyond, want 10", b)
	}
	if _, b := tailQuantile(make([]float64, 9999), 0.999); b >= 10 {
		t.Errorf("p99.9 of 9999 samples has %d beyond, want fewer than 10", b)
	}
	if v, b := tailQuantile(nil, 0.99); v != 0 || b != 0 {
		t.Errorf("tailQuantile(nil) = %g, %d", v, b)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %g", m)
	}
	xs := []float64{4, 1, 3, 2}
	if m := median(xs); m != 2.5 {
		t.Errorf("median even = %g", m)
	}
	if !reflect.DeepEqual(xs, []float64{4, 1, 3, 2}) {
		t.Errorf("median reordered its input: %v", xs)
	}
}

func TestRunLatencyIsMedianOverProcesses(t *testing.T) {
	proc := func(n int, scale float64) *childResult {
		lat := make([]float64, n)
		for i := range lat {
			lat[i] = scale * float64(i+1)
		}
		return &childResult{LatMS: lat}
	}
	// The stalled process (scale 100) does not set the run's tail.
	d := runData{children: []*childResult{proc(2000, 1), proc(1000, 2), proc(1000, 100)}}
	v, beyond := d.latency(0.99)
	if v != 1980 || beyond != 10 {
		t.Errorf("latency(0.99) = %g with %d fewest beyond, want 1980 with 10", v, beyond)
	}
	if n := d.samples(); n != 4000 {
		t.Errorf("samples() = %d, want 4000", n)
	}
}

func TestSelfTimeSubtractsUnionOfNestedIntervals(t *testing.T) {
	parent := interval{0, 100}
	cases := []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"one child", []interval{{10, 30}}, 80},
		{"overlapping children count once", []interval{{10, 20}, {15, 30}}, 80},
		{"child sticking out is clipped", []interval{{90, 120}}, 90},
		{"child outside is ignored", []interval{{100, 150}, {-20, 0}}, 100},
		{"unsorted disjoint children", []interval{{60, 70}, {10, 20}, {40, 45}}, 75},
		{"children covering everything", []interval{{-5, 50}, {50, 105}}, 0},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestTotalsByRequestNestsLayers(t *testing.T) {
	spans := []span{
		// Request 1 through a router: 20 client, 20 relay, 40 server, 20 backend.
		{req: 1, layer: layerClient, start: 0, end: 100},
		{req: 1, layer: layerRouter, start: 10, end: 90},
		{req: 1, layer: layerServer, start: 20, end: 80},
		{req: 1, layer: layerBackend, start: 30, end: 50},
		// Request 2 straight to a server: the server is the client's child.
		{req: 2, layer: layerClient, start: 0, end: 50},
		{req: 2, layer: layerServer, start: 5, end: 45},
		// A server span whose client span was not recorded is dropped, as
		// is a backend call no request was matched to.
		{req: 3, layer: layerServer, start: 0, end: 10},
		{req: 0, layer: layerBackend, start: 0, end: 10},
	}
	tot := totalsByRequest(spans)
	wantSelf := [numLayers]int64{20 + 10, 20, 40 + 40, 20}
	wantCalls := [numLayers]int{2, 1, 2, 1}
	if tot.self != wantSelf || tot.calls != wantCalls {
		t.Fatalf("totals = %v / %v, want %v / %v", tot.self, tot.calls, wantSelf, wantCalls)
	}
	var sum int64
	for _, s := range tot.self {
		sum += s
	}
	if sum != 150 {
		t.Errorf("self times sum to %d, want the clients' 150", sum)
	}
}

func TestLedgerRowsSumBackToWall(t *testing.T) {
	check := func(name string, l ledger) {
		t.Helper()
		sum := l.unattributedMS
		for _, r := range l.rows {
			sum += r.totalMS
		}
		if math.Abs(sum-l.wallMS) > 1e-9*l.wallMS {
			t.Errorf("%s: rows + unattributed = %g, wall %g", name, sum, l.wallMS)
		}
	}
	l := newLedger(100, []ledgerRow{{"a", 30}, {"b", 45}})
	if l.unattributedMS != 25 || l.unattributedRatio() != 0.25 || l.largest().name != "b" {
		t.Errorf("ledger = %+v", l)
	}
	check("plain", l)

	tr := &childResult{TimedS: 2, Clients: 2, Trace: &tracedRaw{
		SelfNS: [numLayers]int64{400e6, 100e6, 900e6, 500e6},
	}}
	rp := &replayRaw{WallNS: 1500e6, SelfNS: [numStages]int64{100e6, 450e6, 50e6, 20e6, 60e6, 200e6, 30e6}}
	served := servingLedger(tr, rp)
	check("serving", served)
	if served.wallMS != 4000 || served.unattributedMS != 4000-1900 {
		t.Errorf("serving ledger wall %g unattributed %g, want 4000 and 2100", served.wallMS, served.unattributedMS)
	}
	for _, r := range served.rows {
		// The server's self time less the replayed pipeline (all but the
		// backend, which is measured live): 900 - 460.
		if r.name == "server.overhead" && r.totalMS != 440 {
			t.Errorf("server.overhead = %g, want 440", r.totalMS)
		}
	}
	check("serving without replay", servingLedger(tr, nil))
	check("replay", replayLedger(rp))
}

func TestStreamsAreSeededPermutations(t *testing.T) {
	a, b, c := hotStream(1), hotStream(1), hotStream(2)
	if !reflect.DeepEqual(a, b) {
		t.Error("hotStream is not a function of its seed")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("hotStream ignores its seed")
	}
	keys := hotKeys()
	seen := make([]int, len(keys))
	for _, r := range a {
		if k := keys[r.ref]; k.path != r.path || k.body != r.body {
			t.Fatalf("request %s %s carries the ref of %s %s", r.path, r.body, k.path, k.body)
		}
		seen[r.ref]++
	}
	for i, n := range seen {
		if n == 0 {
			t.Errorf("hot key %d never sent", i)
		}
	}
	if len(a) != hotCycle || len(keys) != len(mustReferences(t).hot) {
		t.Errorf("hot stream %d requests over %d keys; reference has %d", len(a), len(keys), len(mustReferences(t).hot))
	}

	grid := gridKeys()
	cold := coldStream(grid, 7)
	sent := make([]bool, len(grid))
	for _, r := range cold {
		if r.body != grid[r.ref].body() || sent[r.ref] {
			t.Fatalf("cold stream request %s is not cell %d once", r.body, r.ref)
		}
		sent[r.ref] = true
	}
	if len(cold) != len(grid) || len(grid) != len(mustReferences(t).grid) {
		t.Errorf("cold stream %d requests, grid %d cells, reference %d", len(cold), len(grid), len(mustReferences(t).grid))
	}
}

func mustReferences(t *testing.T) *references {
	t.Helper()
	r, err := loadReferences()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestReplayOutcomesEqualSweepCells(t *testing.T) {
	// The first three questions of the first database are the first cells
	// of both the grid and a sweep over that database alone.
	const questions = 3
	keys := gridKeys()
	n := questions * len(experiments.ModelNames()) * 4
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	bes := map[string]backend.Backend{}
	for _, be := range synthetics() {
		bes[be.Name()] = be
	}
	outs, raw, err := replayCells(keys, order, bes)
	if err != nil {
		t.Fatal(err)
	}
	if raw.Cells != n || raw.Calls[stBackend] != n {
		t.Errorf("replay counted %d cells, %d backend calls; want %d each", raw.Cells, raw.Calls[stBackend], n)
	}
	// One render per (question, variant), shared by the six models.
	if want := questions * 4; raw.Calls[stPrompt] != want {
		t.Errorf("replay rendered %d prompts, want %d", raw.Calls[stPrompt], want)
	}
	first, _ := datasets.Get(datasets.Names[0])
	sw := experiments.RunSweep([]*datasets.Built{first}, experiments.Options{Workers: 2, MaxQuestionsPerDB: questions})
	if bad, ex := compareOutcomes(keys, order, outs, sw.Cells); bad != 0 {
		t.Fatalf("%d replay outcomes differ from the sweep: %v", bad, ex)
	}
	outs[1].execCorrect = !outs[1].execCorrect
	if bad, _ := compareOutcomes(keys, order, outs, sw.Cells); bad != 1 {
		t.Errorf("a flipped outcome gave %d mismatches, want 1", bad)
	}
}

func TestShardSkew(t *testing.T) {
	if s := shardSkew(map[int]int{0: 30, 1: 10}); s != 3 {
		t.Errorf("skew = %g, want 3", s)
	}
	if s := shardSkew(map[int]int{0: 30}); s != 0 {
		t.Errorf("single-server skew = %g, want 0", s)
	}
}

func TestTracedClusterLinksEverySpan(t *testing.T) {
	if testing.Short() {
		t.Skip("starts two servers and a router")
	}
	rec := newRecorder()
	probe := &backendProbe{rec: rec}
	topo, err := startTopology("cluster-hot", rec, probe)
	if err != nil {
		t.Fatal(err)
	}
	defer topo.stop()
	c := newClient(2)
	defer c.CloseIdleConnections()
	refs := mustReferences(t)
	rec.on.Store(true)
	o := drive(c, topo.front, hotKeys(), refs.hot, 2, time.Time{}, rec, probe)
	rec.on.Store(false)
	if o.failed != 0 || o.sent != len(refs.hot) {
		t.Fatalf("sent %d, failed %d: %v", o.sent, o.failed, o.errs)
	}
	if len(o.shards) != 2 {
		t.Errorf("responses came from shards %v, want both", o.shards)
	}
	tot := totalsByRequest(rec.take())
	for _, l := range []layer{layerClient, layerRouter, layerServer} {
		if tot.calls[l] != o.sent {
			t.Errorf("layer %d has %d spans matched to requests, want %d", l, tot.calls[l], o.sent)
		}
	}
	// Every request missed the cold cache, so each /v1/infer request
	// called a backend, matched to it through its cell's decode seed.
	if tot.calls[layerBackend] != o.cells {
		t.Errorf("%d backend calls matched, want one per /v1/infer request (%d)", tot.calls[layerBackend], o.cells)
	}
}
