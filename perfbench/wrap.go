package main

import (
	"context"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/snails-bench/snails/internal/backend"
	"github.com/snails-bench/snails/internal/trace"
)

// backendProbe times the calls of every wrapped backend. A call carries the
// decode seed the pipeline derives for its cell, which is how the probe
// tells which cell, and which request, it belongs to.
type backendProbe struct {
	rec *recorder // nil in the untraced run
	// cellStart, when set, receives the start time of each cell's backend
	// call at the cell's grid index, which cellOf gives.
	cellOf    map[uint64]int
	cellStart []int64
	base      time.Time
	// inflight maps the seed of each /v1/infer request the clients have
	// sent to its request id; a traced backend span is filed under it.
	inflight sync.Map
	errors   atomic.Int64
}

// timedBackend passes Name and Capabilities through and times Infer.
type timedBackend struct {
	backend.Backend
	p *backendProbe
}

func (p *backendProbe) wrap(bes []backend.Backend) []backend.Backend {
	out := make([]backend.Backend, len(bes))
	for i, be := range bes {
		out[i] = timedBackend{Backend: be, p: p}
	}
	return out
}

func (t timedBackend) Infer(ctx context.Context, req backend.Request) (backend.Result, error) {
	p := t.p
	if i, ok := p.cellOf[req.Seed]; ok && p.cellStart != nil {
		p.cellStart[i] = int64(time.Since(p.base))
	}
	start := p.rec.now()
	res, err := t.Backend.Infer(ctx, req)
	if p.rec != nil {
		if err != nil {
			p.errors.Add(1)
		}
		sp := span{layer: layerBackend, start: start, end: p.rec.now()}
		if id, ok := p.inflight.Load(req.Seed); ok {
			sp.req = id.(uint64)
		}
		p.rec.add(sp)
	}
	return res, err
}

// timedHandler records a span around a handler's ServeHTTP, filed under the
// request id the client sent as the wire trace id.
type timedHandler struct {
	h     http.Handler
	rec   *recorder
	layer layer
}

func (t timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := t.rec.now()
	t.h.ServeHTTP(w, r)
	id, _ := trace.Extract(r.Header)
	t.rec.add(span{req: id, layer: t.layer, start: start, end: t.rec.now()})
}
