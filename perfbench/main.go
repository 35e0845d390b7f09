// Command perfbench is the repository's benchmark. Each workload runs in
// fresh processes against the program's Go API; run.sh builds it and passes
// its arguments through:
//
//	bash perfbench/run.sh --workload serve-cold --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics, with --trace 1 the
// per-layer metrics of a separate traced run. The last line of standard
// output is a JSON object; the lines before it print every metric by name
// with its unit, the request counts and the run context. README.md says why
// each workload exists and which layer metric should move which end-to-end
// metric.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"time"
)

var workloads = []string{"sweep-cold", "serve-cold", "serve-hot", "cluster-hot"}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	commit   string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "child" {
		return runChildCommand(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	var writeRef string
	fs.StringVar(&o.workload, "workload", "", "sweep-cold, serve-cold, serve-hot, cluster-hot or all")
	fs.Int64Var(&o.seed, "seed", 1, "seed of the request order")
	fs.Float64Var(&o.seconds, "seconds", 10, "how long one run measures")
	fs.IntVar(&traceFlag, "trace", 0, "1 reports the per-layer metrics of a traced run")
	fs.StringVar(&o.commit, "commit", "unknown", "commit the program was built from, for the run context")
	fs.StringVar(&writeRef, "write-reference", "", "rewrite the reference digests under this benchmark directory and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if writeRef != "" {
		if err := writeReferences(writeRef); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	o.traced = traceFlag == 1
	names := []string{o.workload}
	if o.workload == "all" {
		names = workloads
	}
	for _, w := range names {
		if !validWorkload(w) {
			fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %v or all)\n", w, workloads)
			return 2
		}
	}
	if o.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	for _, w := range names {
		o.workload = w
		rep, err := runWorkload(o, stdout, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w, err)
			return 1
		}
		line, err := json.Marshal(rep)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintln(stdout, string(line))
	}
	return 0
}

func validWorkload(w string) bool {
	for _, n := range workloads {
		if w == n {
			return true
		}
	}
	return false
}

func runChildCommand(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench child", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var a childArgs
	fs.StringVar(&a.mode, "mode", "", "")
	fs.Int64Var(&a.seed, "seed", 1, "")
	fs.Float64Var(&a.seconds, "seconds", 0, "")
	fs.BoolVar(&a.traced, "traced", false, "")
	fs.StringVar(&a.replay, "replay", "", "")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := runChild(a, stdout); err != nil {
		fmt.Fprintf(stderr, "perfbench child %s: %v\n", a.mode, err)
		return 1
	}
	return 0
}

// childTimeout bounds one child process; a run stays well inside the
// benchmark's 180-second limit only if each child does.
const childTimeout = 150 * time.Second

// spawn runs one child and returns its set-up time (process start to the
// "ready" line) and its result.
func spawn(a childArgs, stderr io.Writer) (float64, *childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "child", "-mode", a.mode, "-seed", strconv.FormatInt(a.seed, 10),
		"-seconds", strconv.FormatFloat(a.seconds, 'f', -1, 64), "-traced="+strconv.FormatBool(a.traced), "-replay", a.replay)
	cmd.Stderr = stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return 0, nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, nil, err
	}
	r := bufio.NewReaderSize(pipe, 1<<20)
	var setup float64
	var res *childResult
	line, err := r.ReadBytes('\n')
	if err == nil && string(line) == "ready\n" {
		setup = time.Since(start).Seconds()
		line, err = r.ReadBytes('\n')
		if err == nil {
			res = &childResult{}
			err = json.Unmarshal(line, res)
		}
	} else if err == nil {
		err = fmt.Errorf("unexpected first line %q", line)
	}
	io.Copy(io.Discard, r)
	if werr := cmd.Wait(); werr != nil {
		return 0, nil, fmt.Errorf("child %s: %w", a.mode, werr)
	}
	if err != nil {
		return 0, nil, fmt.Errorf("child %s: %w", a.mode, err)
	}
	return setup, res, nil
}

// runData is everything one workload run measured, child by child.
type runData struct {
	setups   []float64
	children []*childResult
	ledger   *ledger // traced runs only
}

func (d *runData) add(a childArgs, stderr io.Writer) (*childResult, error) {
	setup, res, err := spawn(a, stderr)
	if err != nil {
		return nil, err
	}
	for _, e := range res.Errors {
		fmt.Fprintf(stderr, "perfbench: %s: %s\n", a.mode, e)
	}
	if res.Replay != nil {
		for _, e := range res.Replay.Examples {
			fmt.Fprintf(stderr, "perfbench: replay mismatch: %s\n", e)
		}
	}
	sort.Float64s(res.LatMS)
	d.setups = append(d.setups, setup)
	d.children = append(d.children, res)
	p50, _ := tailQuantile(res.LatMS, 0.50)
	p99, _ := tailQuantile(res.LatMS, 0.99)
	p999, _ := tailQuantile(res.LatMS, 0.999)
	fmt.Fprintf(stderr, "perfbench: child %s traced=%t setup=%.3fs timed=%.3fs units=%d rate=%.1f/s p50=%.4fms p99=%.4fms p99.9=%.4fms rss=%.1fMB\n",
		a.mode, a.traced, setup, res.TimedS, res.Units, ratio(float64(res.Units), res.TimedS), p50, p99, p999, res.RSSMB)
	return res, nil
}

// latency is the median over the run's processes of each process's
// q-quantile latency, with the fewest samples any process has beyond its
// own quantile. A median over processes keeps one process that the host
// stalled from setting the run's tail.
func (d *runData) latency(q float64) (value float64, fewestBeyond int) {
	var vs []float64
	for i, c := range d.children {
		v, beyond := tailQuantile(c.LatMS, q)
		vs = append(vs, v)
		if i == 0 || beyond < fewestBeyond {
			fewestBeyond = beyond
		}
	}
	return median(vs), fewestBeyond
}

func (d *runData) samples() int {
	n := 0
	for _, c := range d.children {
		n += len(c.LatMS)
	}
	return n
}

func (d *runData) counts() (attempted, failed int) {
	for _, c := range d.children {
		attempted += c.Units
		failed += c.Failed
	}
	return attempted, failed
}

// minProcesses is the fewest fresh processes an untraced run of a cold
// workload measures; hotProcesses is how many an untraced hot run splits
// its time over. Every end-to-end metric is a median over these processes.
const (
	minProcesses = 3
	hotProcesses = 5
)

func runWorkload(o options, stdout, stderr io.Writer) (*report, error) {
	var d runData
	var metrics map[string]metric
	var err error
	if o.traced {
		metrics, err = tracedRun(o, &d, stderr)
	} else {
		metrics, err = untracedRun(o, &d, stderr)
	}
	if err != nil {
		return nil, err
	}
	attempted, failed := d.counts()
	rep := &report{Correct: failed == 0 && attempted > 0, Attempted: attempted, Failed: failed, Metrics: metrics}
	printReport(stdout, o, rep, &d)
	return rep, nil
}

// untracedRun measures the end-to-end metrics. The cold workloads run one
// sweep or one pass over the grid per process, in as many fresh processes as
// fit in the run (at least three); the hot workloads split the run over
// five processes.
func untracedRun(o options, d *runData, stderr io.Writer) (map[string]metric, error) {
	a := childArgs{mode: o.workload, seed: o.seed}
	switch o.workload {
	case "sweep-cold", "serve-cold":
		for start := time.Now(); len(d.children) < minProcesses || time.Since(start).Seconds() < o.seconds; {
			if _, err := d.add(a, stderr); err != nil {
				return nil, err
			}
		}
	default:
		a.seconds = o.seconds / hotProcesses
		for i := 0; i < hotProcesses; i++ {
			if _, err := d.add(a, stderr); err != nil {
				return nil, err
			}
		}
	}
	var cellRates, reqRates, rss []float64
	for _, c := range d.children {
		cellRates = append(cellRates, float64(c.Cells)/c.TimedS)
		reqRates = append(reqRates, float64(c.Units)/c.TimedS)
		rss = append(rss, c.RSSMB)
	}
	p50, _ := d.latency(0.50)
	p99, _ := d.latency(0.99)
	p999, _ := d.latency(0.999)
	return map[string]metric{
		"setup_s":         {median(d.setups), "s"},
		"cells_per_s":     {median(cellRates), "1/s"},
		"req_per_s":       {median(reqRates), "1/s"},
		"latency_p50_ms":  {p50, "ms"},
		"latency_p99_ms":  {p99, "ms"},
		"latency_p999_ms": {p999, "ms"},
		"rss_peak_mb":     {median(rss), "MB"},
	}, nil
}

// tracedRun measures the per-layer metrics: an untraced process and a
// traced process of the same work (their ratio is the tracing overhead),
// then a process that times the set-up layers and, for the cold workloads,
// replays the workload's cells layer by layer.
func tracedRun(o options, d *runData, stderr io.Writer) (map[string]metric, error) {
	a := childArgs{mode: o.workload, seed: o.seed, seconds: o.seconds / 2}
	base, err := d.add(a, stderr)
	if err != nil {
		return nil, err
	}
	a.traced = true
	tr, err := d.add(a, stderr)
	if err != nil {
		return nil, err
	}
	la := childArgs{mode: "layers", seed: o.seed}
	switch o.workload {
	case "sweep-cold":
		la.replay = "grid"
	case "serve-cold":
		la.replay = "cold"
	}
	lay, err := d.add(la, stderr)
	if err != nil {
		return nil, err
	}
	m, led := layerMetrics(o.workload, base, tr, lay)
	d.ledger = &led
	return m, nil
}

// layerMetrics composes the per-layer metrics. A layer the workload does not
// exercise reports 0.
func layerMetrics(workload string, base, tr, lay *childResult) (map[string]metric, ledger) {
	m := map[string]metric{}
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	l := lay.Layers
	set("datasets.build_ms", l.DatasetsMS, "ms")
	set("experiments.questions_ms", l.QuestionsMS, "ms")
	set("naturalness.train_ms", l.TrainMS, "ms")
	set("llm.models_ms", l.ModelsMS, "ms")

	rp := lay.Replay
	stage := func(st int) float64 {
		if rp == nil {
			return 0
		}
		return perCallMS(rp.SelfNS[st], rp.Calls[st])
	}
	promptCalls := 0
	if rp != nil {
		promptCalls = rp.Calls[stPrompt]
	}
	set("workflow.prompt.calls", float64(promptCalls), "count")
	set("workflow.prompt.self_ms", stage(stPrompt), "ms")
	set("workflow.denaturalize.self_ms", stage(stDenaturalize), "ms")
	set("sqlparse.parse.self_ms", stage(stParse), "ms")
	set("sqlexec.exec.self_ms", stage(stExec), "ms")
	set("evalx.link.self_ms", stage(stLink), "ms")
	set("evalx.match.self_ms", stage(stMatch), "ms")

	t := tr.Trace
	set("backend.infer.calls", float64(t.BackendCalls), "count")
	set("backend.infer.self_ms", perCallMS(t.BackendNS, t.BackendCalls), "ms")
	set("backend.infer.errors", float64(t.BackendErrors), "count")
	set("sqlexec.exec.calls", float64(t.ExecCalls), "count")
	set("sqlexec.exec.failures", float64(t.ExecFailures), "count")

	var led ledger
	var units int
	if workload == "sweep-cold" {
		led, units = replayLedger(rp), rp.Cells
	} else {
		led, units = servingLedger(tr, rp), tr.Units
	}
	serverSelf := perCallMS(t.SelfNS[layerServer], t.Calls[layerServer])
	overhead := 0.0
	for _, r := range led.rows {
		if r.name == "server.overhead" && t.Calls[layerServer] > 0 {
			overhead = r.totalMS / float64(t.Calls[layerServer])
		}
	}
	set("server.http.calls", float64(t.Calls[layerServer]), "count")
	set("server.http.self_ms", serverSelf, "ms")
	set("server.overhead_ms", overhead, "ms")
	set("server.cache.hit_ratio", ratio(float64(t.CacheHits), float64(t.CacheLookups)), "ratio")
	set("server.batch.mean_size", ratio(t.Batched, t.Batches), "count")
	set("cluster.relay.self_ms", perCallMS(t.SelfNS[layerRouter], t.Calls[layerRouter]), "ms")
	set("cluster.shard_skew", shardSkew(tr.Shards), "ratio")
	set("client.transport_ms", perCallMS(t.SelfNS[layerClient], t.Calls[layerClient]), "ms")
	set("unattributed_ms", led.unattributedMS/float64(max(units, 1)), "ms")
	set("unattributed_ratio", led.unattributedRatio(), "ratio")
	set("trace.overhead_ratio", ratio(tr.TimedS/float64(max(tr.Units, 1)), base.TimedS/float64(max(base.Units, 1))), "ratio")
	return m, led
}

func perCallMS(ns int64, calls int) float64 {
	if calls == 0 {
		return 0
	}
	return float64(ns) / 1e6 / float64(calls)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// shardSkew is the most requests any shard served over the fewest; 0 when
// the workload has no cluster.
func shardSkew(shards map[int]int) float64 {
	if len(shards) < 2 {
		return 0
	}
	lo, hi := -1, 0
	for _, n := range shards {
		hi = max(hi, n)
		if lo < 0 || n < lo {
			lo = n
		}
	}
	return ratio(float64(hi), float64(lo))
}

func nsToMS(ns int64) float64 { return float64(ns) / 1e6 }

// replayLedger breaks the replay's wall time into the pipeline layers; the
// remainder is the replay's own loop.
func replayLedger(rp *replayRaw) ledger {
	rows := make([]ledgerRow, numStages)
	for st := 0; st < numStages; st++ {
		rows[st] = ledgerRow{stageNames[st], nsToMS(rp.SelfNS[st])}
	}
	return newLedger(nsToMS(rp.WallNS), rows)
}

// servingLedger breaks the clients' time (window × clients) into exclusive
// layer time. When a replay of the same cells is given, the pipeline layers
// inside the server are taken from it and the server's remaining self time
// is its overhead: HTTP decode, cache, batcher queue and encode. The
// remainder is client time between requests.
func servingLedger(tr *childResult, rp *replayRaw) ledger {
	t := tr.Trace
	rows := []ledgerRow{
		{"client.transport", nsToMS(t.SelfNS[layerClient])},
		{"cluster.relay", nsToMS(t.SelfNS[layerRouter])},
	}
	overhead := nsToMS(t.SelfNS[layerServer])
	if rp != nil {
		for st := 0; st < numStages; st++ {
			if st == stBackend {
				continue
			}
			rows = append(rows, ledgerRow{stageNames[st], nsToMS(rp.SelfNS[st])})
			overhead -= nsToMS(rp.SelfNS[st])
		}
	}
	rows = append(rows, ledgerRow{"server.overhead", overhead}, ledgerRow{"backend.infer", nsToMS(t.SelfNS[layerBackend])})
	return newLedger(tr.TimedS*1e3*float64(tr.Clients), rows)
}

// printReport writes the human-readable block that precedes the JSON line.
func printReport(w io.Writer, o options, rep *report, d *runData) {
	kind := "end-to-end"
	if o.traced {
		kind = "per-layer"
	}
	fmt.Fprintf(w, "perfbench workload=%s seed=%d seconds=%g trace=%t (%s metrics)\n", o.workload, o.seed, o.seconds, o.traced, kind)
	fmt.Fprintf(w, "context nproc=%d GOMAXPROCS=%d go=%s os=%s/%s commit=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, o.commit)
	fmt.Fprintf(w, "counts processes=%d sent=%d succeeded=%d failed=%d error_ratio=%g\n",
		len(d.children), rep.Attempted, rep.Attempted-rep.Failed, rep.Failed, ratio(float64(rep.Failed), float64(rep.Attempted)))
	if !o.traced {
		_, beyond99 := d.latency(0.99)
		_, beyond999 := d.latency(0.999)
		note := ""
		if beyond999 < 10 {
			note = " (fewer than 10 beyond p99.9: lengthen --seconds)"
		}
		fmt.Fprintf(w, "latency samples=%d per-process fewest beyond_p99=%d beyond_p99.9=%d%s\n", d.samples(), beyond99, beyond999, note)
	}
	if l := d.ledger; l != nil {
		fmt.Fprintf(w, "ledger wall=%.3fms (largest row: %s)\n", l.wallMS, l.largest().name)
		for _, r := range l.rows {
			fmt.Fprintf(w, "  ledger %-26s %12.3f ms %6.1f%%\n", r.name, r.totalMS, 100*ratio(r.totalMS, l.wallMS))
		}
		fmt.Fprintf(w, "  ledger %-26s %12.3f ms %6.1f%%\n", "unattributed", l.unattributedMS, 100*l.unattributedRatio())
	}
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-32s %14.6f %s\n", n, rep.Metrics[n].Value, rep.Metrics[n].Unit)
	}
}
