package main

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/onioncurve/onion/internal/vfs"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{
		{0.5, 5}, {0.9, 9}, {0.99, 10}, {1, 10}, {0.01, 1}, {0.11, 2},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	// p99 of 1000 samples leaves exactly ten samples above it.
	big := make([]float64, 1000)
	for i := range big {
		big[i] = float64(i + 1)
	}
	if got := percentile(big, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		// Two overlapping children cover [10, 50] once.
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},
		// A child running past its parent counts only inside it.
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},
		// A grandchild covers its own parent, not the root.
		{ID: 5, Parent: 3, Name: "d", Start: 25, End: 35},
		// A child wholly outside the parent covers nothing.
		{ID: 6, Parent: 1, Name: "e", Start: 200, End: 210},
	}
	self := selfTimes(spans)
	for id, want := range map[uint64]int64{1: 50, 2: 20, 3: 20, 4: 30, 5: 10, 6: 10} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	sum := summarize(spans)
	if len(sum) != 6 || sum[0].Name != "a" || sum[0].MeanSelfUS != 0.02 {
		t.Errorf("summary = %+v", sum)
	}
}

func TestTracerNilAndSampling(t *testing.T) {
	var off *tracer
	off.add(off.id(), 0, 1, "x", time.Now(), time.Now()) // must not panic
	tr := newTracer(2)
	if tr.sample(traceEvery) != tr || tr.sample(traceEvery+1) != nil {
		t.Fatal("sample does not trace exactly the requests divisible by traceEvery")
	}
	now := time.Now()
	for i := 0; i < 3; i++ {
		tr.add(0, 0, 1, "x", now, now.Add(time.Microsecond))
	}
	spans, dropped := tr.snapshot()
	if len(spans) != 2 || dropped != 1 || spans[0].ID == spans[1].ID {
		t.Fatalf("spans %+v, dropped %d; want 2 distinct spans and 1 dropped", spans, dropped)
	}
}

func TestRecorderWindowAccounting(t *testing.T) {
	open := time.Unix(1000, 0)
	w := window{open: open, close: open.Add(2 * time.Second)}
	if w.bins() != 4 || w.bin(open.Add(1600*time.Millisecond)) != 3 || w.bin(w.close.Add(time.Second)) != 3 {
		t.Fatalf("bins = %d, want 4, with late times clamped into the last", w.bins())
	}
	r := newRecorder(w)
	// Six requests of 10 µs complete inside the window.
	for _, at := range []time.Duration{0, 100, 200, 600, 1600, 1999} {
		end := open.Add(at * time.Millisecond)
		r.observe(end.Add(-10*time.Microsecond), end, nil)
	}
	// In flight at the close: acknowledged late, outside the measurement.
	r.observe(w.close.Add(-time.Millisecond), w.close.Add(time.Millisecond), nil)
	r.observe(open, open.Add(time.Millisecond), errors.New("refused"))
	res := r.result()
	if res.attempted != 8 || res.failed != 1 || res.done != 6 {
		t.Fatalf("attempted %d failed %d done %d, want 8 1 6", res.attempted, res.failed, res.done)
	}
	// Six completions inside a 2 s window.
	if res.perSec != 3 {
		t.Errorf("perSec = %v, want 3", res.perSec)
	}
	if res.p50US != 10 || res.p99US != 10 {
		t.Errorf("p50 %v p99 %v, want 10 10", res.p50US, res.p99US)
	}
}

func TestRecorderBlocks(t *testing.T) {
	open := time.Unix(1000, 0)
	r := newRecorder(window{open: open, close: open.Add(time.Hour)})
	// Three full blocks whose latencies are i+1 µs, i+101 µs and i+1001 µs
	// for i in 0..999, then a partial block that must be left out.
	for b, base := range []int{1, 101, 1001, 5000} {
		n := blockSize
		if b == 3 {
			n = 10
		}
		for i := 0; i < n; i++ {
			end := open.Add(time.Second)
			r.observe(end.Add(-time.Duration(base+i)*time.Microsecond), end, nil)
		}
	}
	res := r.result()
	if res.p50US != 600 || res.p99US != 1090 {
		t.Errorf("p50 %v p99 %v, want the middle block's 600 and 1090", res.p50US, res.p99US)
	}
}

// plainFS is a filesystem without the Linker capability.
type plainFS struct{ vfs.FS }

func TestProbeFSPassthrough(t *testing.T) {
	dir := t.TempDir()
	fsys, probe := newProbe(vfs.OS{})
	if _, ok := fsys.(vfs.Linker); !ok {
		t.Fatal("probe over vfs.OS does not forward Linker")
	}
	unlinked, _ := newProbe(plainFS{vfs.OS{}})
	if _, ok := unlinked.(vfs.Linker); ok {
		t.Fatal("probe over a filesystem without Link claims Linker")
	}

	wal := filepath.Join(dir, "wal-000001.log")
	f, err := fsys.Create(wal)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := fsys.Open(wal)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if n, err := r.ReadAt(buf, 3); err != nil || n != 4 || string(buf) != "3456" {
		t.Fatalf("ReadAt = %d %q %v", n, buf, err)
	}
	r.Close()
	if err := fsys.SyncDir(dir); err != nil {
		t.Fatal(err)
	}
	link := filepath.Join(dir, "seg-1-2-3.pst")
	if err := fsys.(vfs.Linker).Link(wal, link); err != nil {
		t.Fatal(err)
	}
	if b, err := os.ReadFile(link); err != nil || string(b) != "0123456789" {
		t.Fatalf("linked file = %q %v", b, err)
	}

	got := probe.totals()
	w := got[classWAL]
	if w.Writes != 1 || w.WriteBytes != 10 || w.Syncs != 1 || w.Reads != 1 || w.ReadBytes != 4 {
		t.Errorf("wal counters = %+v", w)
	}
	if got[classManifest].Syncs != 1 {
		t.Errorf("directory fsync not counted: %+v", got[classManifest])
	}
	if got[classSegment] != (ioTotals{}) {
		t.Errorf("segment counters moved without segment I/O: %+v", got[classSegment])
	}
	for name, want := range map[string]fileClass{
		"wal-000007.log": classWAL, "seg-1-2-3.pst": classSegment, "seg-1-2-3.pst.tmp": classSegment,
		"MANIFEST": classManifest, "SNAPSHOT.tmp": classManifest, "state": classOther,
	} {
		if got := classify(filepath.Join("x", name)); got != want {
			t.Errorf("classify(%s) = %s, want %s", name, classNames[got], classNames[want])
		}
	}
}
