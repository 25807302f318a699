package experiments

import (
	"fmt"
	"os"

	"github.com/onioncurve/onion/internal/baseline"
	"github.com/onioncurve/onion/internal/cluster"
	"github.com/onioncurve/onion/internal/core"
	"github.com/onioncurve/onion/internal/curve"
	"github.com/onioncurve/onion/internal/engine"
	"github.com/onioncurve/onion/internal/geom"
	"github.com/onioncurve/onion/internal/partition"
	"github.com/onioncurve/onion/internal/ranges"
	"github.com/onioncurve/onion/internal/stats"
	"github.com/onioncurve/onion/internal/workload"
)

// allCurves2D builds the full comparison set used by application-level
// experiments (power-of-two side required).
func allCurves2D(side uint32) ([]curve.Curve, error) {
	o, err := core.NewOnion2D(side)
	if err != nil {
		return nil, err
	}
	h, err := baseline.NewHilbert(2, side)
	if err != nil {
		return nil, err
	}
	z, err := baseline.NewMorton(2, side)
	if err != nil {
		return nil, err
	}
	g, err := baseline.NewGray(2, side)
	if err != nil {
		return nil, err
	}
	s, err := baseline.NewSnake(2, side)
	if err != nil {
		return nil, err
	}
	r, err := baseline.NewRowMajor(2, side)
	if err != nil {
		return nil, err
	}
	return []curve.Curve{o, h, z, g, s, r}, nil
}

// The seeks experiment's disk cost model, roughly a 7200 rpm disk: a
// seek costs seekMillis and each page transferred pageMillis.
const (
	seekMillis = 8.0
	pageMillis = 0.1
	// seeksPageBytes is the segment page size the experiment's stores
	// are written with.
	seeksPageBytes = 1024
)

// SeeksRow summarizes query execution per curve.
type SeeksRow struct {
	Curve         string
	AvgRanges     float64
	AvgSeeks      float64
	AvgPages      float64
	AvgCostMs     float64
	AvgBudgetCost float64 // with an 8-range budget
	AvgFalsePos   float64 // false positives under the budget
}

// Seeks runs the end-to-end storage experiment behind the paper's
// motivation: load the same clustered points into a storage engine per
// curve, flushed and compacted into one curve-ordered segment, run random
// rectangle queries, and price the positioned reads and pages the real
// store pays. The ranges column is the clustering number of the query.
// The budget columns answer each query with its ranges merged down to 8
// (the superset-query tradeoff of Asano et al.); the false positives are
// the returned records outside the rectangle.
func Seeks(cfg Config) ([]SeeksRow, error) {
	cfg = cfg.withDefaults()
	side := uint32(256)
	points := 20000
	queries := 40
	if cfg.Quick {
		side = 64
		points = 2000
		queries = 15
	}
	u := geom.MustUniverse(2, side)
	pts, err := workload.ClusteredPoints(u, 6, points, cfg.Seed+400)
	if err != nil {
		return nil, err
	}
	qs, err := workload.RandomCorners(u, queries, cfg.Seed+401)
	if err != nil {
		return nil, err
	}
	cs, err := allCurves2D(side)
	if err != nil {
		return nil, err
	}
	cs = cs[:3] // onion, hilbert, z — the headline comparison
	var rows []SeeksRow
	for _, c := range cs {
		row, err := seeksRow(c, pts, qs)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// seeksRow loads pts into a fresh engine clustered by c and averages the
// access pattern of the queries.
func seeksRow(c curve.Curve, pts []geom.Point, qs []geom.Rect) (SeeksRow, error) {
	row := SeeksRow{Curve: c.Name()}
	dir, err := os.MkdirTemp("", "onion-seeks-")
	if err != nil {
		return row, err
	}
	defer os.RemoveAll(dir)
	e, err := engine.Open(dir, c, engine.Options{
		PageBytes: seeksPageBytes, FlushEntries: -1, CompactFanout: -1, WALRetention: -1,
	})
	if err != nil {
		return row, err
	}
	defer e.Close()
	for i, p := range pts {
		if err := e.Put(p, uint64(i)); err != nil {
			return row, err
		}
	}
	if err := e.Flush(); err != nil {
		return row, err
	}
	if err := e.Compact(); err != nil {
		return row, err
	}
	cost := func(st engine.Stats) float64 {
		return float64(st.Seeks)*seekMillis + float64(st.PagesRead)*pageMillis
	}
	for _, q := range qs {
		_, st, err := e.Query(q)
		if err != nil {
			return row, err
		}
		row.AvgRanges += float64(st.Planned)
		row.AvgSeeks += float64(st.Seeks)
		row.AvgPages += float64(st.PagesRead)
		row.AvgCostMs += cost(st)
		krs, err := ranges.Decompose(c, q, 0)
		if err != nil {
			return row, err
		}
		merged, err := ranges.MergeToBudget(krs, 8)
		if err != nil {
			return row, err
		}
		recs, stb, err := e.QueryRanges(merged.Ranges)
		if err != nil {
			return row, err
		}
		row.AvgBudgetCost += cost(stb)
		for _, rec := range recs {
			if !q.Contains(rec.Point) {
				row.AvgFalsePos++
			}
		}
	}
	n := float64(len(qs))
	row.AvgRanges /= n
	row.AvgSeeks /= n
	row.AvgPages /= n
	row.AvgCostMs /= n
	row.AvgBudgetCost /= n
	row.AvgFalsePos /= n
	return row, nil
}

// RenderSeeks renders the storage experiment.
func RenderSeeks(rows []SeeksRow) string {
	out := make([][]string, 0, len(rows))
	for _, r := range rows {
		out = append(out, []string{
			r.Curve,
			fmt.Sprintf("%.1f", r.AvgRanges),
			fmt.Sprintf("%.1f", r.AvgSeeks),
			fmt.Sprintf("%.1f", r.AvgPages),
			fmt.Sprintf("%.2f", r.AvgCostMs),
			fmt.Sprintf("%.2f", r.AvgBudgetCost),
			fmt.Sprintf("%.1f", r.AvgFalsePos),
		})
	}
	return "Storage experiment: avg per query (random rectangles, clustered points)\n" +
		stats.FormatTable([]string{"curve", "ranges", "seeks", "pages", "cost ms", "cost ms (budget 8)", "false pos"}, out)
}

// FanoutRow summarizes partition fan-out per curve.
type FanoutRow struct {
	Curve     string
	Shards    int
	AvgFanout float64
	MaxLoad   int // of a balanced-by-weight partitioning of the sample
}

// Fanout measures how many shards a rectangle query touches when the key
// space is range-partitioned — the distributed-partitioning motivation of
// the paper's introduction.
func Fanout(cfg Config) ([]FanoutRow, error) {
	cfg = cfg.withDefaults()
	side := uint32(256)
	queries := 40
	shards := 16
	if cfg.Quick {
		side = 64
		queries = 15
	}
	u := geom.MustUniverse(2, side)
	qs, err := workload.RandomTranslates(u, []uint32{side / 4, side / 4}, queries, cfg.Seed+500)
	if err != nil {
		return nil, err
	}
	pts, err := workload.ClusteredPoints(u, 5, 5000, cfg.Seed+501)
	if err != nil {
		return nil, err
	}
	cs, err := allCurves2D(side)
	if err != nil {
		return nil, err
	}
	cs = cs[:3]
	var rows []FanoutRow
	for _, c := range cs {
		keys := make([]uint64, len(pts))
		for i, p := range pts {
			keys[i] = c.Index(p)
		}
		part, err := partition.ByWeight(c, keys, shards)
		if err != nil {
			return nil, err
		}
		row := FanoutRow{Curve: c.Name(), Shards: shards}
		for _, q := range qs {
			fo, err := part.FanOut(q)
			if err != nil {
				return nil, err
			}
			row.AvgFanout += float64(fo)
		}
		row.AvgFanout /= float64(len(qs))
		for _, l := range part.Loads(keys) {
			if l > row.MaxLoad {
				row.MaxLoad = l
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderFanout renders the partition experiment.
func RenderFanout(rows []FanoutRow) string {
	out := make([][]string, 0, len(rows))
	for _, r := range rows {
		out = append(out, []string{
			r.Curve, fmt.Sprint(r.Shards),
			fmt.Sprintf("%.2f", r.AvgFanout), fmt.Sprint(r.MaxLoad),
		})
	}
	return "Partition fan-out: shards touched per quarter-size square query (weight-balanced shards)\n" +
		stats.FormatTable([]string{"curve", "shards", "avg fan-out", "max shard load"}, out)
}

// AblationRow compares the onion family's within-layer orders.
type AblationRow struct {
	L     uint32
	Curve string
	Mean  float64
}

// Ablation separates two different claims about the onion curve's
// within-layer structure. The paper proves the *segment permutation* is
// immaterial (Section VI-A): a 3D onion curve visiting S1..S10 in an
// arbitrary order clusters identically to the paper's order — rows
// "onion" vs "onion-perm" confirm this. In contrast, degrading the order
// *inside* segments (OnionND's per-slice tube rings, LayerLex's
// lexicographic shells) destroys the constant: both remain layer-
// sequential yet cluster orders of magnitude worse on large cubes, which
// shows the segments' internal 2D-onion structure is load-bearing.
func Ablation(cfg Config) ([]AblationRow, error) {
	cfg = cfg.withDefaults()
	side := uint32(32)
	samples := 30
	if cfg.Quick {
		side = 16
		samples = 10
	}
	o3, err := core.NewOnion3D(side)
	if err != nil {
		return nil, err
	}
	o3p, err := core.NewOnion3DWithSegmentOrder(side, [10]int{9, 1, 3, 4, 5, 2, 6, 7, 8, 10})
	if err != nil {
		return nil, err
	}
	o3p.Id = "onion-perm"
	nd, err := core.NewOnionND(3, side)
	if err != nil {
		return nil, err
	}
	ll, err := core.NewLayerLex(3, side)
	if err != nil {
		return nil, err
	}
	h3, err := baseline.NewHilbert(3, side)
	if err != nil {
		return nil, err
	}
	cs := []curve.Curve{o3, o3p, nd, ll, h3}
	u := geom.MustUniverse(3, side)
	var rows []AblationRow
	for i, frac := range []uint32{8, 4, 2} {
		l := side - side/frac
		qs, err := workload.RandomTranslates(u, []uint32{l, l, l}, samples, cfg.Seed+600+int64(i))
		if err != nil {
			return nil, err
		}
		for _, c := range cs {
			var sum float64
			for _, q := range qs {
				n, err := cluster.CountSorted(c, q, 0)
				if err != nil {
					return nil, err
				}
				sum += float64(n)
			}
			rows = append(rows, AblationRow{L: l, Curve: c.Name(), Mean: sum / float64(len(qs))})
		}
	}
	return rows, nil
}

// RenderAblation renders the ablation table.
func RenderAblation(rows []AblationRow) string {
	out := make([][]string, 0, len(rows))
	for _, r := range rows {
		out = append(out, []string{fmt.Sprint(r.L), r.Curve, fmt.Sprintf("%.2f", r.Mean)})
	}
	return "Ablation: within-layer order (onion vs onionnd vs layerlex) vs hilbert, 3D cubes\n" +
		stats.FormatTable([]string{"l", "curve", "mean clusters"}, out)
}
