package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/netsim"
)

// span is one timed call into a layer's public function, with the
// network counter deltas charged between its start and its end.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Op     int    `json:"op"`     // shared by the spans of one op; 0 outside ops
	Round  int    `json:"round"`
	Name   string `json:"name"`
	Site   int    `json:"site,omitempty"`
	Start  int64  `json:"start_ns"` // since the run started
	End    int64  `json:"end_ns"`
	CostUs int64  `json:"cost_us"` // charged simulated cost (CPU + disk)
	D      delta  `json:"d"`
}

// delta holds the Stats().Sub counters the per-layer metrics use.
type delta struct {
	Msgs        int64            `json:"msgs,omitempty"`
	Bytes       int64            `json:"bytes,omitempty"`
	Calls       int64            `json:"calls,omitempty"`
	Casts       int64            `json:"casts,omitempty"`
	CPUUs       int64            `json:"cpu_us,omitempty"`
	DiskUs      int64            `json:"disk_us,omitempty"`
	CacheHits   int64            `json:"cache_hits,omitempty"`
	CacheMisses int64            `json:"cache_misses,omitempty"`
	CacheInvals int64            `json:"cache_invals,omitempty"`
	PullWindows int64            `json:"pull_windows,omitempty"`
	PullPages   int64            `json:"pull_pages,omitempty"`
	ByMethod    map[string]int64 `json:"by_method,omitempty"`
}

func deltaOf(s netsim.Snapshot) delta {
	return delta{
		Msgs: s.Msgs, Bytes: s.Bytes, Calls: s.Calls, Casts: s.Casts,
		CPUUs: s.CPUUs, DiskUs: s.DiskUs,
		CacheHits: s.CacheHits, CacheMisses: s.CacheMisses, CacheInvals: s.CacheInvals,
		PullWindows: s.PullWindowsSent, PullPages: s.PullPagesSent,
		ByMethod: s.ByMethod,
	}
}

func (d *delta) add(o delta) {
	d.Msgs += o.Msgs
	d.Bytes += o.Bytes
	d.Calls += o.Calls
	d.Casts += o.Casts
	d.CPUUs += o.CPUUs
	d.DiskUs += o.DiskUs
	d.CacheHits += o.CacheHits
	d.CacheMisses += o.CacheMisses
	d.CacheInvals += o.CacheInvals
	d.PullWindows += o.PullWindows
	d.PullPages += o.PullPages
	for k, v := range o.ByMethod {
		if d.ByMethod == nil {
			d.ByMethod = make(map[string]int64)
		}
		d.ByMethod[k] += v
	}
}

// openSpan is a span whose end is not yet recorded.
type openSpan struct {
	idx  int
	snap netsim.Snapshot
	cost int64
}

// tracer keeps spans in memory for the whole run; write puts them in a
// file when the run ends. A nil *tracer records nothing, so untraced
// runs pay one nil check per boundary.
type tracer struct {
	t0    time.Time
	nw    *netsim.Network
	round int
	op    int
	spans []span
	open  []openSpan
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// bind points the tracer at the network of a new round.
func (t *tracer) bind(nw *netsim.Network, round int) {
	if t == nil {
		return
	}
	t.nw, t.round = nw, round
}

// nextOp starts a new op id for the spans that follow.
func (t *tracer) nextOp() {
	if t != nil {
		t.op++
	}
}

// begin opens a span as a child of the innermost open span.
func (t *tracer) begin(name string, site int, inOp bool) int {
	if t == nil {
		return 0
	}
	sp := span{ID: len(t.spans) + 1, Name: name, Site: site, Round: t.round}
	if inOp {
		sp.Op = t.op
	}
	if n := len(t.open); n > 0 {
		sp.Parent = t.spans[t.open[n-1].idx].ID
	}
	t.spans = append(t.spans, sp)
	t.open = append(t.open, openSpan{idx: len(t.spans) - 1, snap: t.nw.Stats(), cost: t.nw.CostUs()})
	t.spans[len(t.spans)-1].Start = int64(time.Since(t.t0))
	return sp.ID
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	end := int64(time.Since(t.t0))
	o := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	sp := &t.spans[o.idx]
	if sp.ID != id {
		panic(fmt.Sprintf("perfbench: span %d closed while %d is innermost", id, sp.ID))
	}
	sp.End = end
	sp.CostUs = t.nw.CostUs() - o.cost
	sp.D = deltaOf(t.nw.Stats().Sub(o.snap))
}

// write stores the spans as JSON lines at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
