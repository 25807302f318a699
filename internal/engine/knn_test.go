package engine

import (
	"math/rand"
	"sort"
	"testing"

	"github.com/onioncurve/onion/internal/core"
	"github.com/onioncurve/onion/internal/geom"
	"github.com/onioncurve/onion/internal/workload"
)

// bruteNearest is the kNN oracle: every live record of the model ranked
// by squared distance to p, ties by curve key, cut to k.
func bruteNearest(live map[uint64]Record, p geom.Point, k int) []Neighbor {
	keys := make([]uint64, 0, len(live))
	for key := range live {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
	ns := make([]Neighbor, 0, len(keys))
	for _, key := range keys {
		rec := live[key]
		var d2 uint64
		for i := range p {
			d := int64(p[i]) - int64(rec.Point[i])
			d2 += uint64(d * d)
		}
		ns = append(ns, Neighbor{Point: rec.Point, Payload: rec.Payload, DistSq: d2})
	}
	sort.SliceStable(ns, func(a, b int) bool { return ns[a].DistSq < ns[b].DistSq })
	return ns[:min(k, len(ns))]
}

// TestEngineNearestOracle cross-checks Nearest against a brute-force scan
// of the live records, with the data in the memtable only, in segments
// only (tombstones in a newer segment shadowing an older one), and mixed
// across both with tombstones on each side; a deleted point is never a
// neighbor. Points sit on a coarse lattice, so queries at lattice
// midpoints tie on distance; k runs past the live record count. The
// clustered case loads dense clusters into one flushed segment.
func TestEngineNearestOracle(t *testing.T) {
	const side = 64
	c, _ := core.NewOnion2D(side)
	clustered, err := workload.ClusteredPoints(geom.MustUniverse(2, side), 4, 800, 21)
	if err != nil {
		t.Fatal(err)
	}
	// phase describes one write round: puts, deletes, then whether the
	// round is flushed to a segment.
	type phase struct {
		puts, dels int
		flush      bool
	}
	for _, tc := range []struct {
		name   string
		pts    []geom.Point // drawn in order; nil draws lattice points
		phases []phase
	}{
		{"memtable", nil, []phase{{puts: 150, dels: 40}}},
		{"segments", nil, []phase{{puts: 150, flush: true}, {puts: 30, dels: 50, flush: true}}},
		{"mixed", nil, []phase{{puts: 120, dels: 10, flush: true}, {puts: 40, dels: 30, flush: true}, {puts: 30, dels: 30}}},
		{"clustered", clustered, []phase{{puts: len(clustered), flush: true}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, err := Open(t.TempDir(), c, manualOpts())
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			rng := rand.New(rand.NewSource(31))
			live := map[uint64]Record{}
			payload := uint64(0)
			for _, ph := range tc.phases {
				for i := 0; i < ph.puts; i++ {
					p := geom.Point{4 * uint32(rng.Intn(side/4)), 4 * uint32(rng.Intn(side/4))}
					if tc.pts != nil {
						p = tc.pts[payload]
					}
					payload++
					if err := e.Put(p, payload); err != nil {
						t.Fatal(err)
					}
					live[c.Index(p)] = Record{Point: p, Payload: payload}
				}
				for i := 0; i < ph.dels && len(live) > 0; i++ {
					keys := make([]uint64, 0, len(live))
					for key := range live {
						keys = append(keys, key)
					}
					sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
					victim := keys[rng.Intn(len(keys))]
					if err := e.Delete(live[victim].Point); err != nil {
						t.Fatal(err)
					}
					delete(live, victim)
				}
				if ph.flush {
					if err := e.Flush(); err != nil {
						t.Fatal(err)
					}
				}
			}
			segOnly := e.Stats().MemEntries == 0
			if tc.name == "segments" && !segOnly {
				t.Fatal("segments-only case left memtable entries")
			}
			for trial := 0; trial < 80; trial++ {
				q := geom.Point{uint32(rng.Intn(side)), uint32(rng.Intn(side))}
				if trial%2 == 0 { // a lattice midpoint: four-way ties
					q = geom.Point{4*uint32(rng.Intn(side/4)) + 2, 4*uint32(rng.Intn(side/4)) + 2}
					q[0], q[1] = min(q[0], side-1), min(q[1], side-1)
				}
				k := 1 + rng.Intn(12)
				if trial%10 == 0 {
					k = len(live) + 5
				}
				got, st, err := e.Nearest(q, k)
				if err != nil {
					t.Fatal(err)
				}
				want := bruteNearest(live, q, k)
				if len(got) != len(want) || st.Results != len(want) {
					t.Fatalf("q=%v k=%d: %d neighbors (stats %d), want %d", q, k, len(got), st.Results, len(want))
				}
				for i := range want {
					g, w := got[i], want[i]
					if !g.Point.Equal(w.Point) || g.Payload != w.Payload || g.DistSq != w.DistSq {
						t.Fatalf("q=%v k=%d neighbor %d: %+v, want %+v", q, k, i, g, w)
					}
				}
				if st.Planned == 0 {
					t.Fatalf("q=%v: stats %+v plan nothing", q, st)
				}
				if segOnly && len(got) > 0 && st.Seeks == 0 {
					t.Fatalf("q=%v: segment-served neighbors paid no seeks: %+v", q, st)
				}
			}
		})
	}
}

// TestEngineNearestEdgeCases: an empty engine, a query point on a stored
// record, and invalid arguments.
func TestEngineNearestEdgeCases(t *testing.T) {
	c, _ := core.NewOnion2D(16)
	e, err := Open(t.TempDir(), c, manualOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if ns, _, err := e.Nearest(geom.Point{3, 3}, 5); err != nil || len(ns) != 0 {
		t.Fatalf("empty engine: %v, %v", ns, err)
	}
	for _, p := range []geom.Point{{1, 1}, {10, 10}} {
		if err := e.Put(p, uint64(p[0])); err != nil {
			t.Fatal(err)
		}
	}
	ns, _, err := e.Nearest(geom.Point{10, 10}, 1)
	if err != nil || len(ns) != 1 || ns[0].DistSq != 0 || ns[0].Payload != 10 {
		t.Fatalf("self lookup: %+v, %v", ns, err)
	}
	if _, _, err := e.Nearest(geom.Point{99, 0}, 1); err == nil {
		t.Error("out-of-universe query accepted")
	}
	if _, _, err := e.Nearest(geom.Point{0, 0}, 0); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestIsqrtCeil(t *testing.T) {
	cases := map[uint64]uint64{0: 0, 1: 1, 2: 2, 3: 2, 4: 2, 5: 3, 99: 10, 100: 10, 101: 11, 1 << 40: 1 << 20}
	for v, want := range cases {
		if got := isqrtCeil(v); got != want {
			t.Errorf("isqrtCeil(%d) = %d, want %d", v, got, want)
		}
	}
	// Property: r = isqrtCeil(v) satisfies (r-1)^2 < v <= r^2.
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 2000; i++ {
		v := uint64(rng.Int63n(1 << 40))
		r := isqrtCeil(v)
		if r*r < v || (r > 0 && (r-1)*(r-1) >= v) {
			t.Fatalf("isqrtCeil(%d) = %d out of bounds", v, r)
		}
	}
}
