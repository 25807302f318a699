package engine

import (
	"fmt"
	"math"
	"sort"

	"github.com/onioncurve/onion/internal/geom"
)

// Neighbor is one k-nearest-neighbors result: a live record and its
// squared Euclidean distance to the query point.
type Neighbor struct {
	Point   geom.Point
	Payload uint64
	DistSq  uint64
}

// Nearest returns the k live records nearest to p under Euclidean
// distance, closest first, ties broken by curve key. Fewer than k come
// back only when the engine holds fewer live records. It runs expanding
// box queries through Query: a box of Chebyshev radius r contains every
// point within Euclidean distance r, so once k candidates are found the
// radius is tightened to the k-th candidate distance and one final query
// makes the result exact. This is the multi-dimensional
// similarity-search application from the paper's introduction.
//
// The returned Stats sum the access pattern of every box query — seeks,
// pages, planned ranges — except Results, which counts the neighbors
// returned. Each box query reads its own snapshot, so a Nearest racing
// concurrent writes sees each box at a possibly different instant.
func (e *Engine) Nearest(p geom.Point, k int) ([]Neighbor, Stats, error) {
	var total Stats
	u := e.c.Universe()
	if !u.Contains(p) {
		return nil, total, fmt.Errorf("%w: %v in %v", ErrPoint, p, u)
	}
	if k <= 0 {
		return nil, total, fmt.Errorf("engine: k must be positive (got %d)", k)
	}
	query := func(r uint64) ([]Record, bool, error) {
		box := boxAround(u, p, r)
		recs, st, err := e.Query(box)
		total.add(st)
		return recs, box.Equal(u.Rect()), err
	}
	for r := uint64(1); ; r = min(2*r, uint64(u.Side())) {
		recs, covers, err := query(r)
		if err != nil {
			return nil, total, err
		}
		if len(recs) < k && !covers {
			continue
		}
		ns := rank(p, recs, k)
		// A box covering the universe is exact; otherwise the result is
		// exact once the k-th distance fits inside the searched box, and
		// one pass with the certified radius makes it so.
		if !covers {
			if dk := ns[k-1].DistSq; dk > r*r {
				if recs, _, err = query(isqrtCeil(dk)); err != nil {
					return nil, total, err
				}
				ns = rank(p, recs, k)
			}
		}
		total.Results = len(ns)
		return ns, total, nil
	}
}

// add accumulates o into s.
func (s *Stats) add(o Stats) {
	s.Seeks += o.Seeks
	s.PagesRead += o.PagesRead
	s.RecordsScanned += o.RecordsScanned
	s.Results += o.Results
	s.MemEntries += o.MemEntries
	s.Segments += o.Segments
	s.Planned += o.Planned
	s.IO.Add(o.IO)
}

// boxAround clips [p-r, p+r] to the universe.
func boxAround(u geom.Universe, p geom.Point, r uint64) geom.Rect {
	lo := make(geom.Point, len(p))
	hi := make(geom.Point, len(p))
	for i, v := range p {
		if uint64(v) > r {
			lo[i] = v - uint32(r)
		}
		hi[i] = uint32(min(uint64(v)+r, uint64(u.Side()-1)))
	}
	return geom.Rect{Lo: lo, Hi: hi}
}

// rank returns the k candidates nearest to p. recs arrive in curve-key
// order and the sort is stable, so equal distances keep key order.
func rank(p geom.Point, recs []Record, k int) []Neighbor {
	ns := make([]Neighbor, len(recs))
	for i, rec := range recs {
		var d2 uint64
		for j := range p {
			d := uint64(max(p[j], rec.Point[j]) - min(p[j], rec.Point[j]))
			d2 += d * d
		}
		ns[i] = Neighbor{Point: rec.Point, Payload: rec.Payload, DistSq: d2}
	}
	sort.SliceStable(ns, func(a, b int) bool { return ns[a].DistSq < ns[b].DistSq })
	return ns[:min(k, len(ns))]
}

// isqrtCeil returns ceil(sqrt(v)).
func isqrtCeil(v uint64) uint64 {
	// The float seed is within 1 ulp for the distances a 32-bit grid
	// produces in few dimensions; fix up exactly.
	r := uint64(math.Sqrt(float64(v)))
	for r > 0 && r*r >= v {
		r--
	}
	for r*r < v {
		r++
	}
	return r
}
