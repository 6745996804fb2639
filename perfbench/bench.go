package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"

	"repro/internal/netsim"
	"repro/locus"
)

// session is a logged-in session together with the site it runs at.
type session struct {
	site int
	s    *locus.Session
}

// run accumulates everything one benchmark run measures, over all of
// its rounds.
type run struct {
	tr     *tracer
	rounds int

	ops, failed int
	wallUs      []float64 // per op of the current round, including its quiesce
	simUs       []float64 // per op of the current round, charged simulated µs
	wallP50     []float64 // per round
	wallP99     []float64 // per round
	simP50      []float64 // per round
	simP99      []float64 // per round
	setupS      []float64 // per round
	phaseWall   time.Duration
	phase       delta // counter deltas over the timed phases
	mallocs     uint64
	allocBytes  uint64
	gcCycles    uint32
	gcPauseNs   uint64
	cpu         time.Duration
	costs       netsim.CostModel
	dirBytes    int64
	propagated  int
	dirsMerged  int
	mismatches  int
	firstErrors []string
}

// endRound takes the per-op quantiles of the round just played; the
// run reports their medians over rounds. Every round plays the same
// schedule, so the simulated-cost quantiles repeat exactly however many
// rounds fit in the run, and the run's memory does not grow with its
// length.
func (r *run) endRound() {
	q := percentiles(r.simUs, 0.5, 0.99)
	r.simP50 = append(r.simP50, q[0])
	r.simP99 = append(r.simP99, q[1])
	q = percentiles(r.wallUs, 0.5, 0.99)
	r.wallP50 = append(r.wallP50, q[0])
	r.wallP99 = append(r.wallP99, q[1])
	r.simUs, r.wallUs = r.simUs[:0], r.wallUs[:0]
}

// note records a failed output check.
func (r *run) note(err error) {
	r.mismatches++
	if len(r.firstErrors) < 10 {
		r.firstErrors = append(r.firstErrors, err.Error())
	}
}

// check records err, the outcome of an output check of an op issued
// at site, when it is set. A failed op's error comes back from endOp
// already counted, so callers pass only check results here.
func (r *run) check(site int, err error) {
	if err != nil {
		r.note(fmt.Errorf("site %d: %w", site, err))
	}
}

// round is one pass of a workload's fixed op schedule against a
// freshly built cluster.
type round struct {
	*run
	c    *locus.Cluster
	nw   *netsim.Network
	sess []session // indexed by site id; entry 0 unused

	opSpan int
	opWall time.Time
	opCost int64

	phaseSnap netsim.Snapshot
	phaseMem  runtime.MemStats
	phaseCPU  time.Duration
	phaseSpan int
}

func newRound(r *run, c *locus.Cluster) *round {
	rd := &round{run: r, c: c, nw: c.Network()}
	rd.sess = make([]session, len(c.Sites())+1)
	for _, id := range c.Sites() {
		rd.sess[id] = session{site: int(id), s: c.Site(id).Login("bench")}
	}
	r.tr.bind(rd.nw, r.rounds)
	r.costs = rd.nw.Cost()
	return rd
}

// beginPhase starts the timed phase of a round.
func (rd *round) beginPhase() {
	runtime.ReadMemStats(&rd.phaseMem)
	rd.phaseCPU = cpuTime()
	rd.phaseSnap = rd.nw.Stats()
	rd.phaseSpan = rd.tr.begin("phase", 0, false)
}

// endPhase closes the timed phase and folds its counters into the run.
func (rd *round) endPhase() {
	rd.tr.end(rd.phaseSpan)
	rd.phase.add(deltaOf(rd.nw.Stats().Sub(rd.phaseSnap)))
	rd.cpu += cpuTime() - rd.phaseCPU
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	rd.mallocs += m.Mallocs - rd.phaseMem.Mallocs
	rd.allocBytes += m.TotalAlloc - rd.phaseMem.TotalAlloc
	rd.gcCycles += m.NumGC - rd.phaseMem.NumGC
	rd.gcPauseNs += m.PauseTotalNs - rd.phaseMem.PauseTotalNs
}

// beginOp starts timing one op: the calls it makes and the quiesce
// that drains the traffic they leave behind.
func (rd *round) beginOp(kind, site int) {
	rd.tr.nextOp()
	rd.opSpan = rd.tr.begin(opSpans[kind], site, true)
	rd.opCost = rd.nw.CostUs()
	rd.opWall = time.Now()
}

// endOp quiesces the network, records the op's wall and simulated
// cost, and counts it failed if err is set. It reports err == nil.
func (rd *round) endOp(err error) bool {
	rd.quiesce()
	wall := time.Since(rd.opWall)
	rd.simUs = append(rd.simUs, float64(rd.nw.CostUs()-rd.opCost))
	rd.wallUs = append(rd.wallUs, float64(wall.Nanoseconds())/1e3)
	rd.phaseWall += wall
	rd.tr.end(rd.opSpan)
	rd.ops++
	if err != nil {
		rd.failed++
		if len(rd.firstErrors) < 10 {
			rd.firstErrors = append(rd.firstErrors, "op failed: "+err.Error())
		}
		return false
	}
	return true
}

// quiesce waits until no message is queued or being handled.
func (rd *round) quiesce() {
	q := rd.tr.begin("netsim.quiesce", 0, true)
	rd.nw.Quiesce()
	rd.tr.end(q)
}

// step times a cluster-wide step of the timed phase (settle, partition,
// merge) that is not itself an op.
func (rd *round) step(name string, f func() error) error {
	id := rd.tr.begin(name, 0, false)
	t0 := time.Now()
	err := f()
	rd.phaseWall += time.Since(t0)
	rd.tr.end(id)
	return err
}

func (rd *round) settle() error {
	return rd.step("fs.settle", func() error { rd.c.Settle(); return nil })
}

// The Session calls, each inside a span when tracing.

func (rd *round) readFile(s session, path string) ([]byte, error) {
	id := rd.tr.begin("locus.readfile", s.site, true)
	b, err := s.s.ReadFile(path)
	rd.tr.end(id)
	return b, callErr("readfile", s, path, err)
}

func (rd *round) writeFile(s session, path string, data []byte) error {
	id := rd.tr.begin("locus.writefile", s.site, true)
	err := s.s.WriteFile(path, data)
	rd.tr.end(id)
	return callErr("writefile", s, path, err)
}

func (rd *round) stat(s session, path string) (int64, error) {
	id := rd.tr.begin("locus.stat", s.site, true)
	ino, err := s.s.Stat(path)
	rd.tr.end(id)
	if err != nil {
		return 0, callErr("stat", s, path, err)
	}
	return ino.Size, nil
}

func (rd *round) readDir(s session, path string) ([]string, error) {
	id := rd.tr.begin("locus.readdir", s.site, true)
	ents, err := s.s.ReadDir(path)
	rd.tr.end(id)
	names := make([]string, len(ents))
	for i, e := range ents {
		names[i] = e.Name
	}
	return names, callErr("readdir", s, path, err)
}

func (rd *round) unlink(s session, path string) error {
	id := rd.tr.begin("locus.unlink", s.site, true)
	err := s.s.Unlink(path)
	rd.tr.end(id)
	return callErr("unlink", s, path, err)
}

func (rd *round) rename(s session, from, to string) error {
	id := rd.tr.begin("locus.rename", s.site, true)
	err := s.s.Rename(from, to)
	rd.tr.end(id)
	return callErr("rename", s, from, err)
}

// callErr names the failed call, its site and its path.
func callErr(call string, s session, path string, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%s %s at site %d: %w", call, path, s.site, err)
}

// verify is the end-of-round check, outside the timed phase: every
// listing at every site equals the model's name set, every file read
// at every site equals the model, and a converged fsck is clean.
func (rd *round) verify(dir string, m *model) {
	for _, s := range rd.sess[1:] {
		names, err := s.s.ReadDir(dir)
		if err != nil {
			rd.note(fmt.Errorf("final listing at site %d: %w", s.site, err))
			continue
		}
		var got []string
		for _, e := range names {
			got = append(got, e.Name)
		}
		if err := m.checkList(s.site, got); err != nil {
			rd.note(fmt.Errorf("final %w", err))
		}
		for _, n := range m.names() {
			b, err := s.s.ReadFile(dir + "/" + n)
			if err == nil {
				err = m.checkRead(n, b)
			}
			if err != nil {
				rd.note(fmt.Errorf("final read at site %d: %w", s.site, err))
			}
		}
	}
	for _, f := range rd.c.Fsck(true) {
		rd.note(fmt.Errorf("fsck: %s", f))
	}
	if ino, err := rd.sess[1].s.Stat(dir); err == nil {
		rd.dirBytes = ino.Size
	} else {
		rd.note(fmt.Errorf("stat %s: %w", dir, err))
	}
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB returns the process's peak resident set in MiB.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
