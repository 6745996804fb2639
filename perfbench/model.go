package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
)

// fileKey names one committed version of one file: the generator key
// of its content and its length in pages.
type fileKey struct{ id, ver, pages int }

// model is the benchmark's own record of one workload directory: every
// live name and the key of its last committed content. It is kept
// apart from the program under test; every output is checked against
// it.
type model struct {
	seed  uint64
	files map[string]fileKey
	buf   []byte // scratch for expected content
}

func newModel(seed uint64) *model {
	return &model{seed: seed, files: make(map[string]fileKey)}
}

// clone returns an independent copy, as a snapshot or a partition view.
func (m *model) clone() *model {
	c := newModel(m.seed)
	for n, k := range m.files {
		c.files[n] = k
	}
	return c
}

// names returns the live names in ascending order.
func (m *model) names() []string {
	out := make([]string, 0, len(m.files))
	for n := range m.files {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// expect returns the content the model holds for key k. The slice is
// scratch space, valid until the next call.
func (m *model) expect(k fileKey) []byte {
	n := k.pages * pageSize
	if cap(m.buf) < n {
		m.buf = make([]byte, n)
	}
	m.buf = m.buf[:n]
	fillContent(m.buf, m.seed, k.id, k.ver)
	return m.buf
}

// checkRead reports whether got is the last committed content of name.
func (m *model) checkRead(name string, got []byte) error {
	k, ok := m.files[name]
	if !ok {
		return fmt.Errorf("read %s: name is not in the model", name)
	}
	if bytes.Equal(got, m.expect(k)) {
		return nil
	}
	if len(got) != k.pages*pageSize {
		return fmt.Errorf("read %s: %d bytes, want %d (file %d version %d)", name, len(got), k.pages*pageSize, k.id, k.ver)
	}
	for p := 0; p < k.pages; p++ {
		pg := got[p*pageSize:]
		id := int(binary.LittleEndian.Uint32(pg[4:]))
		ver := int(binary.LittleEndian.Uint32(pg[8:]))
		if id != k.id || ver != k.ver {
			return fmt.Errorf("read %s: page %d holds file %d version %d, want file %d version %d", name, p, id, ver, k.id, k.ver)
		}
	}
	return fmt.Errorf("read %s: content corrupted (file %d version %d)", name, k.id, k.ver)
}

// checkStat reports whether size is the length of name's last commit.
func (m *model) checkStat(name string, size int64) error {
	k, ok := m.files[name]
	if !ok {
		return fmt.Errorf("stat %s: name is not in the model", name)
	}
	if want := int64(k.pages * pageSize); size != want {
		return fmt.Errorf("stat %s: size %d, want %d", name, size, want)
	}
	return nil
}

// checkList reports whether got is exactly the model's name set.
func (m *model) checkList(site int, got []string) error {
	seen := make(map[string]bool, len(got))
	var extra, missing []string
	for _, n := range got {
		if seen[n] {
			extra = append(extra, n+" (twice)")
			continue
		}
		seen[n] = true
		if _, ok := m.files[n]; !ok {
			extra = append(extra, n)
		}
	}
	for n := range m.files {
		if !seen[n] {
			missing = append(missing, n)
		}
	}
	if len(extra) == 0 && len(missing) == 0 {
		return nil
	}
	sort.Strings(extra)
	sort.Strings(missing)
	return fmt.Errorf("listing at site %d: missing [%s], unexpected [%s]", site,
		clip(missing), clip(extra))
}

func clip(names []string) string {
	if len(names) > 8 {
		return strings.Join(names[:8], " ") + fmt.Sprintf(" ... %d more", len(names)-8)
	}
	return strings.Join(names, " ")
}
