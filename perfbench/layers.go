package main

import (
	"sort"
	"strings"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// callKinds are the Session calls the workloads make, one per locus
// system call measured at the boundary into fs.
var callKinds = []string{"readfile", "writefile", "stat", "readdir", "unlink", "rename"}

// rpcMethods are the netsim RPC methods reported per op. A method not
// listed here is counted under netsim.msgs.other, so the metric set is
// the same on every workload.
var rpcMethods = []string{
	"fs.close", "fs.commit", "fs.create", "fs.getvv", "fs.listinodes",
	"fs.open", "fs.propnotify", "fs.pullopen", "fs.pullpages", "fs.read",
	"fs.readphys", "fs.setattr", "fs.ssclose", "fs.sscreate", "fs.ssopen",
	"fs.write", "topo.announce", "topo.mergepoll", "topo.poll",
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endToEnd computes the end-to-end metrics of an untraced run.
func (r *run) endToEnd() map[string]metric {
	ops := float64(r.ops)
	return map[string]metric{
		"setup_s":        {percentiles(r.setupS, 0.5)[0], "s"},
		"ops_per_s":      {div(ops, r.phaseWall.Seconds()), "ops/s"},
		"wall_us.p50":    {percentiles(r.wallP50, 0.5)[0], "us"},
		"sim_us.p50":     {percentiles(r.simP50, 0.5)[0], "sim_us"},
		"sim_us.p99":     {percentiles(r.simP99, 0.5)[0], "sim_us"},
		"msgs_per_op":    {div(float64(r.phase.Msgs), ops), "msgs/op"},
		"wire_kb_per_op": {div(float64(r.phase.Bytes)/1024, ops), "KiB/op"},
		"allocs_per_op":  {div(float64(r.mallocs), ops), "allocs/op"},
		"rss_peak_mb":    {peakRSSMiB(), "MiB"},
	}
}

// perLayer computes the per-layer metrics of a traced run from its
// spans and the counter deltas recorded at their boundaries.
func (r *run) perLayer() map[string]metric {
	out := make(map[string]metric)
	ops := float64(r.ops)
	rounds := float64(r.rounds)

	type agg struct {
		wallUs, simUs []float64
		msgs          int64
	}
	by := make(map[string]*agg)
	for i := range r.tr.spans {
		sp := &r.tr.spans[i]
		a := by[sp.Name]
		if a == nil {
			a = &agg{}
			by[sp.Name] = a
		}
		a.wallUs = append(a.wallUs, float64(sp.End-sp.Start)/1e3)
		a.simUs = append(a.simUs, float64(sp.CostUs))
		a.msgs += sp.D.Msgs
	}
	get := func(name string) *agg {
		if a := by[name]; a != nil {
			return a
		}
		return &agg{}
	}

	for _, k := range callKinds {
		a := get("locus." + k)
		n := float64(len(a.wallUs))
		w := percentiles(a.wallUs, 0.5, 0.99)
		out["locus."+k+".count"] = metric{div(n, rounds), "calls/round"}
		out["locus."+k+".wall_us.p50"] = metric{w[0], "us"}
		out["locus."+k+".wall_us.p99"] = metric{w[1], "us"}
		out["locus."+k+".sim_us.p50"] = metric{percentiles(a.simUs, 0.5)[0], "sim_us"}
		out["locus."+k+".msgs"] = metric{div(float64(a.msgs), n), "msgs/call"}
	}

	out["op.wall_us.p99"] = metric{percentiles(r.wallP99, 0.5)[0], "us"}

	q := get("netsim.quiesce")
	qWall := 0.0
	for _, w := range q.wallUs {
		qWall += w
	}
	d := r.phase
	out["netsim.quiesce.wall_us.p50"] = metric{percentiles(q.wallUs, 0.5)[0], "us"}
	out["netsim.quiesce.wall_share"] = metric{div(qWall/1e6, r.phaseWall.Seconds()), "share"}
	out["netsim.calls_per_op"] = metric{div(float64(d.Calls), ops), "calls/op"}
	out["netsim.casts_per_op"] = metric{div(float64(d.Casts), ops), "casts/op"}
	out["netsim.bytes_per_msg"] = metric{div(float64(d.Bytes), float64(d.Msgs)), "B/msg"}
	out["netsim.cpu_us_per_op"] = metric{div(float64(d.CPUUs), ops), "sim_us/op"}
	other := d.Msgs
	for _, m := range rpcMethods {
		n := d.ByMethod[m]
		other -= n
		out["netsim.msgs."+m] = metric{div(float64(n), ops), "msgs/op"}
	}
	out["netsim.msgs.other"] = metric{div(float64(other), ops), "msgs/op"}

	diskPerOp := div(float64(d.DiskUs), ops)
	out["storage.disk_us_per_op"] = metric{diskPerOp, "sim_us/op"}
	out["storage.page_ios_per_op"] = metric{div(diskPerOp, float64(r.costs.DiskUs)), "pages/op"}

	out["fs.cache.hit_rate"] = metric{div(float64(d.CacheHits), float64(d.CacheHits+d.CacheMisses)), "ratio"}
	out["fs.cache.invals_per_op"] = metric{div(float64(d.CacheInvals), ops), "pages/op"}
	out["fs.prop.pull_windows"] = metric{div(float64(d.PullWindows), rounds), "windows/round"}
	out["fs.prop.pages_per_window"] = metric{div(float64(d.PullPages), float64(d.PullWindows)), "pages/window"}
	out["fs.settle.wall_ms"] = metric{percentiles(get("fs.settle").wallUs, 0.5)[0] / 1e3, "ms"}
	out["fs.dir.bytes"] = metric{float64(r.dirBytes), "B"}

	p := get("topology.partition")
	out["topology.partition.wall_ms"] = metric{percentiles(p.wallUs, 0.5)[0] / 1e3, "ms"}
	out["topology.partition.msgs"] = metric{div(float64(p.msgs), float64(len(p.wallUs))), "msgs/partition"}
	mg := get("recon.merge")
	merges := float64(len(mg.wallUs))
	out["recon.merge.wall_ms"] = metric{percentiles(mg.wallUs, 0.5)[0] / 1e3, "ms"}
	out["recon.merge.msgs"] = metric{div(float64(mg.msgs), merges), "msgs/merge"}
	out["recon.merge.propagated"] = metric{div(float64(r.propagated), merges), "files/merge"}
	out["recon.merge.dirs_merged"] = metric{div(float64(r.dirsMerged), merges), "dirs/merge"}

	out["runtime.gc_cycles"] = metric{float64(r.gcCycles), "cycles"}
	out["runtime.gc_pause_ms"] = metric{float64(r.gcPauseNs) / 1e6, "ms"}
	out["runtime.alloc_kb_per_op"] = metric{div(float64(r.allocBytes)/1024, ops), "KiB/op"}
	out["runtime.cpu_s"] = metric{r.cpu.Seconds(), "s"}
	out["runtime.cpu_per_wall"] = metric{div(r.cpu.Seconds(), r.phaseWall.Seconds()), "ratio"}

	out["trace.ops_per_s"] = metric{div(ops, r.phaseWall.Seconds()), "ops/s"}
	return out
}

// unlistedMethods returns the RPC methods the run sent that rpcMethods
// does not name (reported on standard error so the list can be kept
// complete).
func (r *run) unlistedMethods() string {
	known := make(map[string]bool)
	for _, m := range rpcMethods {
		known[m] = true
	}
	var out []string
	for m := range r.phase.ByMethod {
		if !known[m] {
			out = append(out, m)
		}
	}
	sort.Strings(out)
	return strings.Join(out, " ")
}
