package main

import (
	"fmt"
	"time"

	"repro/locus"
)

// A workload turns a seed and a per-round op count into a fixed op
// schedule, and returns the function that plays one round of it: boot
// and seed a fresh cluster (the set-up), run the schedule (the timed
// phase), then check the end state against the model.
type workload struct {
	name string
	ops  int // ops per round unless overridden
	plan func(seed uint64, ops int) func(*run) error
}

var workloads = []workload{
	{name: "remote-scan", ops: 1500, plan: planRemoteScan},
	{name: "replicated-edit", ops: 1000, plan: planReplicatedEdit},
	{name: "dir-churn", ops: 1500, plan: planDirChurn},
}

// Op kinds drawn by the schedules.
const (
	opRead = iota
	opWrite
	opStat
	opList
	opCreate
	opBuild
)

// opSpans names each kind's op span in a traced run.
var opSpans = [...]string{"op.read", "op.write", "op.stat", "op.list", "op.create", "op.build"}

// op is one scheduled operation. Schedules are drawn from the seed
// before the first round and replayed unchanged by every round.
type op struct {
	kind   int
	site   int    // issuing site
	file   int    // generator id of the target file
	name   string // target name in the workload directory
	path   string
	tmp    string // dir-churn: path of the temporary
	reread int    // dir-churn: site that re-reads the target, 0 for none
}

// boot builds a cluster, seeds dir with the model's files from site 1
// and settles; it records the elapsed time as the round's set-up.
func boot(r *run, spec locus.ClusterSpec, dir string, m *model) (*round, error) {
	t0 := time.Now()
	c, err := locus.NewCluster(spec)
	if err != nil {
		return nil, fmt.Errorf("boot: %w", err)
	}
	admin := c.Site(1).Login("setup")
	if err := admin.Mkdir(dir); err != nil {
		c.Close()
		return nil, fmt.Errorf("setup mkdir %s: %w", dir, err)
	}
	for _, n := range m.names() {
		if err := admin.WriteFile(dir+"/"+n, m.expect(m.files[n])); err != nil {
			c.Close()
			return nil, fmt.Errorf("setup write %s: %w", n, err)
		}
	}
	c.Settle()
	rd := newRound(r, c)
	r.setupS = append(r.setupS, time.Since(t0).Seconds())
	return rd, nil
}

func sites(ids ...int) []locus.SiteSpec {
	out := make([]locus.SiteSpec, len(ids))
	for i, id := range ids {
		out[i] = locus.SiteSpec{ID: locus.SiteID(id)}
	}
	return out
}

var threeSites = sites(1, 2, 3)

// replicatedEverywhere is locus.Simple(3)'s layout: one filegroup
// mounted at "/" with a copy at every site.
var replicatedEverywhere = locus.ClusterSpec{
	Sites:      threeSites,
	Filegroups: []locus.FilegroupSpec{{ID: 1, MountPath: "/", Replicas: []locus.SiteID{1, 2, 3}}},
}

// baseModel returns a model holding files id 0..n-1, named by format,
// each at version 1 and pages pages long.
func baseModel(seed uint64, n, pages int, format string) (*model, []string) {
	m := newModel(seed)
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf(format, i)
		m.files[names[i]] = fileKey{id: i, ver: 1, pages: pages}
	}
	return m, names
}

// remote-scan: one filegroup stored only at site 1; sites 2 and 3 read
// it remotely. 512 files of 8 pages are four times one using site's
// 1,024-page cache.
const (
	scanDir   = "/scan"
	scanFiles = 512
	scanPages = 8
)

func scanSchedule(seed uint64, n int) []op {
	_, names := baseModel(seed, scanFiles, scanPages, "f%03d")
	r := newRNG(seed, 1)
	z := newZipf(scanFiles, 1.1)
	ops := make([]op, n)
	for i := range ops {
		o := op{site: 2 + r.intn(2), file: z.sample(r)}
		switch v := r.intn(100); {
		case v < 85:
			o.kind = opRead
		case v < 95:
			o.kind = opStat
		default:
			o.kind = opList
		}
		o.name = names[o.file]
		o.path = scanDir + "/" + o.name
		ops[i] = o
	}
	return ops
}

func planRemoteScan(seed uint64, n int) func(*run) error {
	ops := scanSchedule(seed, n)
	spec := locus.ClusterSpec{
		Sites:      threeSites,
		Filegroups: []locus.FilegroupSpec{{ID: 1, MountPath: "/", Replicas: []locus.SiteID{1}}},
	}
	return func(ru *run) error {
		m, _ := baseModel(seed, scanFiles, scanPages, "f%03d")
		rd, err := boot(ru, spec, scanDir, m)
		if err != nil {
			return err
		}
		defer rd.c.Close()
		rd.beginPhase()
		for _, o := range ops {
			s := rd.sess[o.site]
			rd.beginOp(o.kind, o.site)
			var err, cerr error // the op's error; its output check's
			switch o.kind {
			case opRead:
				var b []byte
				b, err = rd.readFile(s, o.path)
				if rd.endOp(err) {
					cerr = m.checkRead(o.name, b)
				}
			case opStat:
				var size int64
				size, err = rd.stat(s, o.path)
				if rd.endOp(err) {
					cerr = m.checkStat(o.name, size)
				}
			case opList:
				var got []string
				got, err = rd.readDir(s, scanDir)
				if rd.endOp(err) {
					cerr = m.checkList(o.site, got)
				}
			}
			rd.check(o.site, cerr)
		}
		if err := rd.settle(); err != nil {
			return err
		}
		rd.endPhase()
		rd.verify(scanDir, m)
		return nil
	}
}

// replicated-edit: 64 two-page files replicated at all three sites,
// half rewrites and half reads, with a partition/merge cycle every
// editCycle ops. During the partition site 3 writes only the last
// editMinority files and the majority {1,2} only the others, and each
// side creates one file under a name of its own.
const (
	editDir      = "/edit"
	editFiles    = 64
	editPages    = 2
	editCycle    = 100 // ops per partition/merge cycle
	editSplit    = 70  // ops of a cycle before the partition
	editMinority = 16
)

// editSchedule rounds n up to whole partition/merge cycles.
func editSchedule(seed uint64, n int) []op {
	_, names := baseModel(seed, editFiles, editPages, "e%02d")
	cycles := (n + editCycle - 1) / editCycle
	r := newRNG(seed, 2)
	ops := make([]op, 0, cycles*editCycle)
	for c := 0; c < cycles; c++ {
		for j := 0; j < editCycle; j++ {
			o := op{site: 1 + r.intn(3), kind: opRead + r.intn(2)}
			switch {
			case j < editSplit:
				o.file = r.intn(editFiles)
			case j == editSplit:
				o = op{site: 1 + r.intn(2), kind: opCreate, file: editFiles + 2*c, name: fmt.Sprintf("maj%03d", c)}
			case j == editSplit+1:
				o = op{site: 3, kind: opCreate, file: editFiles + 2*c + 1, name: fmt.Sprintf("min%03d", c)}
			case o.kind == opRead:
				o.file = r.intn(editFiles)
			case o.site == 3:
				o.file = editFiles - editMinority + r.intn(editMinority)
			default:
				o.file = r.intn(editFiles - editMinority)
			}
			if o.name == "" {
				o.name = names[o.file]
			}
			o.path = editDir + "/" + o.name
			ops = append(ops, o)
		}
	}
	return ops
}

func planReplicatedEdit(seed uint64, n int) func(*run) error {
	ops := editSchedule(seed, n)
	return func(ru *run) error {
		m, _ := baseModel(seed, editFiles, editPages, "e%02d")
		rd, err := boot(ru, replicatedEverywhere, editDir, m)
		if err != nil {
			return err
		}
		defer rd.c.Close()
		rd.beginPhase()
		var maj, min *model // the two sides' views while partitioned
		for i, o := range ops {
			j := i % editCycle
			if j == editSplit {
				if err := rd.settle(); err != nil {
					return err
				}
				if err := rd.step("topology.partition", func() error {
					rd.c.Partition([]locus.SiteID{1, 2}, []locus.SiteID{3})
					return nil
				}); err != nil {
					return err
				}
				maj, min = m.clone(), m.clone()
			}
			view := m
			if maj != nil {
				view = maj
				if o.site == 3 {
					view = min
				}
			}
			s := rd.sess[o.site]
			rd.beginOp(o.kind, o.site)
			var err, cerr error // the op's error; its output check's
			if o.kind == opRead {
				var b []byte
				b, err = rd.readFile(s, o.path)
				if rd.endOp(err) {
					cerr = view.checkRead(o.name, b)
				}
			} else {
				k := fileKey{id: o.file, ver: 1, pages: editPages}
				if old, ok := view.files[o.name]; ok {
					k.ver = old.ver + 1
				}
				err = rd.writeFile(s, o.path, view.expect(k))
				if rd.endOp(err) {
					view.files[o.name] = k
				}
			}
			rd.check(o.site, cerr)
			if j == editCycle-1 {
				if err := rd.step("recon.merge", func() error {
					rep, err := rd.c.Merge()
					rd.propagated += rep.Propagated
					rd.dirsMerged += rep.DirsMerged
					return err
				}); err != nil {
					return fmt.Errorf("merge: %w", err)
				}
				// Each side wrote files the other did not, so the merged
				// namespace is the majority view plus the minority's
				// changes since the snapshot.
				for n, k := range min.files {
					if old, ok := m.files[n]; !ok || old != k {
						maj.files[n] = k
					}
				}
				m, maj, min = maj, nil, nil
			}
		}
		if err := rd.settle(); err != nil {
			return err
		}
		rd.endPhase()
		rd.verify(editDir, m)
		return nil
	}
}

// dir-churn: build steps on 64 one-page targets. Each op writes and
// commits a temporary under a name never used before, unlinks the
// target and renames the temporary over it; one op in four re-reads
// the target from a random site. Every op leaves a deleted-entry
// tombstone in the directory.
//
// Nothing propagates between ops, so every directory update of a
// cluster's life is served by the storage site that holds the latest
// directory version: the site of the first update. Its message cost
// differs by a third between the CSS and the other sites, so one draw
// would decide a run's figures. A round therefore plays the schedule
// on three fresh clusters, with the site ids rotated, so that each
// site makes the first update once.
const (
	churnDir     = "/churn"
	churnTargets = 64
)

func churnSchedule(seed uint64, n int) []op {
	_, names := baseModel(seed, churnTargets, 1, "t%02d")
	r := newRNG(seed, 3)
	ops := make([]op, n)
	for i := range ops {
		o := op{kind: opBuild, site: 1 + r.intn(3), file: r.intn(churnTargets)}
		if r.intn(4) == 0 {
			o.reread = 1 + r.intn(3)
		}
		o.name = names[o.file]
		o.path = churnDir + "/" + o.name
		o.tmp = fmt.Sprintf("%s/tmp%06d", churnDir, i)
		ops[i] = o
	}
	return ops
}

func planDirChurn(seed uint64, n int) func(*run) error {
	ops := churnSchedule(seed, n)
	return func(ru *run) error {
		for rot := 0; rot < 3; rot++ {
			if err := playChurn(ru, seed, ops, rot); err != nil {
				return err
			}
		}
		return nil
	}
}

// rotate maps site id s (1..3) to the site rot places on.
func rotate(s, rot int) int { return (s-1+rot)%3 + 1 }

func playChurn(ru *run, seed uint64, ops []op, rot int) error {
	m, _ := baseModel(seed, churnTargets, 1, "t%02d")
	rd, err := boot(ru, replicatedEverywhere, churnDir, m)
	if err != nil {
		return err
	}
	defer rd.c.Close()
	rd.beginPhase()
	for _, o := range ops {
		site := rotate(o.site, rot)
		s := rd.sess[site]
		k := m.files[o.name]
		k.ver++
		rd.beginOp(o.kind, site)
		err := rd.writeFile(s, o.tmp, m.expect(k))
		if err == nil {
			err = rd.unlink(s, o.path)
		}
		if err == nil {
			err = rd.rename(s, o.tmp, o.path)
		}
		var got []byte
		reread := rotate(o.reread, rot)
		if err == nil && o.reread != 0 {
			// The re-read waits until the build's traffic has drained:
			// issued at once from a site with no propagation pending,
			// it can resolve the name through that site's stale
			// directory copy and fail (see README, "Faults found").
			rd.quiesce()
			got, err = rd.readFile(rd.sess[reread], o.path)
		}
		if rd.endOp(err) {
			m.files[o.name] = k
			if o.reread != 0 {
				rd.check(reread, m.checkRead(o.name, got))
			}
		}
	}
	if err := rd.settle(); err != nil {
		return err
	}
	rd.endPhase()
	rd.verify(churnDir, m)
	return nil
}
