package main

import (
	"encoding/binary"
	"math"
	"sort"
)

// pageSize is the LOCUS data page size (storage.PageSize). The inputs
// are sized in pages so that working sets can be stated against the
// using-site page cache.
const pageSize = 4096

// rng is a splitmix64 stream. The benchmark draws every input from
// streams of its own so that a seed fixes the inputs independently of
// the program under test.
type rng struct{ s uint64 }

func newRNG(seed, stream uint64) *rng {
	return &rng{s: seed*0x9e3779b97f4a7c15 ^ stream*0xd1b54a32d192ed03}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return mix64(r.s)
}

func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a uniform draw from [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// float returns a uniform draw from [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// zipf draws ranks 0..n-1 with P(k) proportional to 1/(k+1)^s.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for k := 0; k < n; k++ {
		sum += 1 / math.Pow(float64(k+1), s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return &zipf{cdf: cdf}
}

func (z *zipf) sample(r *rng) int {
	i := sort.SearchFloat64s(z.cdf, r.float())
	if i >= len(z.cdf) {
		i = len(z.cdf) - 1
	}
	return i
}

// pageHeader is the length of the key stamped at the start of every
// generated page: magic, file id, version and page index.
const pageHeader = 16

// fillContent writes version ver of file id into b, whose length is a
// whole number of pages. Every page starts with (id, ver, page), so two
// different keys never give the same bytes and a stale or misplaced
// page cannot pass a comparison; the rest of the page is a seeded
// pseudo-random fill.
func fillContent(b []byte, seed uint64, id, ver int) {
	for p := 0; p < len(b)/pageSize; p++ {
		pg := b[p*pageSize : (p+1)*pageSize]
		binary.LittleEndian.PutUint32(pg[0:], 0x4c4f4355) // "LOCU"
		binary.LittleEndian.PutUint32(pg[4:], uint32(id))
		binary.LittleEndian.PutUint32(pg[8:], uint32(ver))
		binary.LittleEndian.PutUint32(pg[12:], uint32(p))
		r := rng{s: mix64(seed ^ uint64(id)<<40 ^ uint64(ver)<<16 ^ uint64(p))}
		for i := pageHeader; i < pageSize; i += 8 {
			binary.LittleEndian.PutUint64(pg[i:], r.next())
		}
	}
}

// quantile returns the q-quantile of sorted by linear interpolation
// between the closest ranks (the "type 7" definition used by R and
// NumPy). It returns 0 for an empty sample.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	h := q * float64(n-1)
	lo := int(math.Floor(h))
	if lo >= n-1 {
		return sorted[n-1]
	}
	return sorted[lo] + (h-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// percentiles sorts a copy of xs and returns its quantiles at qs.
func percentiles(xs []float64, qs ...float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = quantile(s, q)
	}
	return out
}
