package main

import (
	"math"
	"strings"
	"testing"
)

// content returns version ver of file id, pages pages long.
func content(seed uint64, id, ver, pages int) []byte {
	b := make([]byte, pages*pageSize)
	fillContent(b, seed, id, ver)
	return b
}

func TestQuantileKnownValues(t *testing.T) {
	var oneTo101 []float64
	for i := 1; i <= 101; i++ {
		oneTo101 = append(oneTo101, float64(i))
	}
	for _, c := range []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{oneTo101, 0, 1},
		{oneTo101, 0.5, 51},
		{oneTo101, 0.99, 100},
		{oneTo101, 1, 101},
		{[]float64{4, 1, 3, 2}, 0.5, 2.5},
		{[]float64{10, 20}, 0.25, 12.5},
		{[]float64{7}, 0.99, 7},
		{nil, 0.5, 0},
	} {
		if got := percentiles(c.xs, c.q)[0]; math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", c.xs, c.q, got, c.want)
		}
	}
}

func TestQuantileOfKnownDistributions(t *testing.T) {
	r := newRNG(42, 0)
	const n = 200000
	uni := make([]float64, n)
	exp := make([]float64, n)
	for i := 0; i < n; i++ {
		uni[i] = r.float()
		exp[i] = -math.Log(1 - r.float())
	}
	for _, c := range []struct {
		name string
		xs   []float64
		q    float64
		want float64
		tol  float64
	}{
		{"uniform p50", uni, 0.5, 0.5, 0.005},
		{"uniform p99", uni, 0.99, 0.99, 0.002},
		{"exponential p50", exp, 0.5, math.Ln2, 0.01},
		{"exponential p99", exp, 0.99, math.Log(100), 0.05},
	} {
		if got := percentiles(c.xs, c.q)[0]; math.Abs(got-c.want) > c.tol {
			t.Errorf("%s = %.4f, want %.4f ± %v", c.name, got, c.want, c.tol)
		}
	}
}

func TestZipfRepeatsForSeed(t *testing.T) {
	z := newZipf(512, 1.1)
	draw := func(seed uint64) []int {
		r := newRNG(seed, 1)
		out := make([]int, 1000)
		for i := range out {
			out[i] = z.sample(r)
		}
		return out
	}
	a, b, c := draw(7), draw(7), draw(8)
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed 7 draw %d: %d then %d", i, a[i], b[i])
		}
		same = same && a[i] == c[i]
	}
	if same {
		t.Fatal("seeds 7 and 8 gave the same draws")
	}
}

func TestZipfFrequencies(t *testing.T) {
	const n, s, draws = 512, 1.1, 400000
	z := newZipf(n, s)
	r := newRNG(1, 1)
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[z.sample(r)]++
	}
	h := 0.0
	for k := 1; k <= n; k++ {
		h += math.Pow(float64(k), -s)
	}
	for _, k := range []int{0, 1, 9} {
		want := math.Pow(float64(k+1), -s) / h
		got := float64(counts[k]) / draws
		if math.Abs(got-want) > 0.05*want {
			t.Errorf("P(rank %d) = %.4f, want %.4f", k, got, want)
		}
	}
}

func TestContentKeysAreDistinct(t *testing.T) {
	a := content(1, 3, 4, 2)
	for _, k := range []fileKey{{3, 5, 2}, {4, 4, 2}, {2, 4, 2}} {
		b := content(1, k.id, k.ver, k.pages)
		for p := 0; p < 2; p++ {
			if string(a[p*pageSize:(p+1)*pageSize]) == string(b[p*pageSize:(p+1)*pageSize]) {
				t.Errorf("file 3 version 4 and %+v share page %d", k, p)
			}
		}
	}
	if string(a[:pageSize]) == string(a[pageSize:]) {
		t.Error("two pages of one version are equal")
	}
	if string(a) != string(content(1, 3, 4, 2)) {
		t.Error("content is not a function of its key")
	}
}

func TestChecksCatchWrongOutputs(t *testing.T) {
	m := newModel(9)
	m.files["a"] = fileKey{id: 1, ver: 3, pages: 2}
	m.files["b"] = fileKey{id: 2, ver: 1, pages: 2}
	good := content(9, 1, 3, 2)
	if err := m.checkRead("a", good); err != nil {
		t.Fatalf("correct read rejected: %v", err)
	}

	corrupt := append([]byte(nil), good...)
	corrupt[pageSize+100] ^= 1
	stale := content(9, 1, 2, 2)
	for _, c := range []struct {
		name string
		got  []byte
		want string
	}{
		{"corrupted byte", corrupt, "corrupted"},
		{"stale version", stale, "version 2, want file 1 version 3"},
		{"other file", content(9, 2, 1, 2), "holds file 2"},
		{"short read", good[:pageSize], "bytes, want"},
		{"other seed", content(8, 1, 3, 2), "corrupted"},
	} {
		err := m.checkRead("a", c.got)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error containing %q", c.name, err, c.want)
		}
	}
	if err := m.checkRead("gone", good); err == nil {
		t.Error("read of a name the model lacks passed")
	}

	if err := m.checkStat("a", 2*pageSize); err != nil {
		t.Errorf("correct stat rejected: %v", err)
	}
	if err := m.checkStat("a", pageSize); err == nil {
		t.Error("wrong stat size passed")
	}

	if err := m.checkList(1, []string{"b", "a"}); err != nil {
		t.Errorf("correct listing rejected: %v", err)
	}
	for _, c := range []struct {
		name string
		got  []string
		want string
	}{
		{"missing name", []string{"a"}, "missing [b]"},
		{"leftover temporary", []string{"a", "b", "tmp000001"}, "unexpected [tmp000001]"},
		{"duplicate", []string{"a", "b", "a"}, "a (twice)"},
	} {
		err := m.checkList(2, c.got)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error containing %q", c.name, err, c.want)
		}
	}
}

func TestSchedulesRepeatAndKeepTheirRules(t *testing.T) {
	for _, sched := range []func(uint64, int) []op{scanSchedule, editSchedule, churnSchedule} {
		a, b := sched(5, 400), sched(5, 400)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("op %d differs between two draws of seed 5: %+v %+v", i, a[i], b[i])
			}
		}
	}
	for _, o := range scanSchedule(5, 2000) {
		if o.site == 1 {
			t.Fatal("remote-scan issued an op at the storage site")
		}
	}
	ops := editSchedule(5, 1000)
	if len(ops)%editCycle != 0 {
		t.Fatalf("replicated-edit schedule of %d ops is not whole cycles", len(ops))
	}
	for i, o := range ops {
		if i%editCycle < editSplit || o.kind != opWrite {
			continue
		}
		minority := o.file >= editFiles-editMinority
		if minority != (o.site == 3) {
			t.Fatalf("op %d: site %d writes file %d during a partition", i, o.site, o.file)
		}
	}
	seen := make(map[string]bool)
	for _, o := range churnSchedule(5, 1000) {
		if seen[o.tmp] {
			t.Fatalf("temporary %s reused", o.tmp)
		}
		seen[o.tmp] = true
	}
}

// TestRoundsAreCorrect plays one short round of every workload and
// then shows that the end-of-round check catches a stale model.
func TestRoundsAreCorrect(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			r := &run{}
			if err := w.plan(3, 200)(r); err != nil {
				t.Fatal(err)
			}
			r.endRound()
			if r.failed != 0 || r.mismatches != 0 {
				t.Fatalf("failed=%d mismatches=%d: %v", r.failed, r.mismatches, r.firstErrors)
			}
			if r.ops < 200 || r.phase.Msgs == 0 || len(r.simP50) != 1 {
				t.Fatalf("ops=%d msgs=%d rounds=%d", r.ops, r.phase.Msgs, len(r.simP50))
			}
		})
	}
}

func TestVerifyCatchesStaleModel(t *testing.T) {
	r := &run{}
	m, _ := baseModel(4, churnTargets, 1, "t%02d")
	rd, err := boot(r, replicatedEverywhere, churnDir, m)
	if err != nil {
		t.Fatal(err)
	}
	defer rd.c.Close()
	rd.verify(churnDir, m)
	if r.mismatches != 0 {
		t.Fatalf("clean cluster: %v", r.firstErrors)
	}
	k := m.files["t07"]
	k.ver++
	m.files["t07"] = k
	m.files["extra"] = fileKey{id: 99, ver: 1, pages: 1}
	rd.verify(churnDir, m)
	// Per site: one listing missing "extra", a stale t07 and a failed
	// read of "extra".
	if want := 3 * 3; r.mismatches != want {
		t.Fatalf("mismatches = %d, want %d: %v", r.mismatches, want, r.firstErrors)
	}
}
