package main

import (
	"context"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	onion "github.com/onioncurve/onion"
)

// querySides are the square query sides every querying workload mixes:
// the paper's claim is clustering "irrespective of side length".
var querySides = [3]uint32{16, 64, 256}

// sideWeights is the share of each side in the mix, in percent.
var sideWeights = [3]int{70, 20, 10}

// The hot region of read-skew-midcache: a fixed 32x32 square of origins
// that side-16 queries start in hotPct percent of the time. The pages
// those queries touch come to about 196 KiB, inside the 256 KiB cache
// (a query of side s crosses about s onion rings, and every ring crossing
// is at least one page, so a hot set of larger sides could not fit).
// Side-64 and side-256 queries, and the remaining side-16 ones, take
// uniform origins: scans that pollute the cache. Hot queries are 63% of
// the mix. The region is fixed rather than drawn from the seed, so that
// every seed measures the same working set.
const (
	hotX, hotY = 160, 608
	hotSide    = 32
	hotPct     = 90
)

// queryGen draws the query rectangles of one client.
type queryGen struct {
	rng *rand.Rand
	hot bool
}

// next returns a rectangle and the index of its side in querySides.
func (g *queryGen) next() (onion.Rect, int) {
	r := g.rng.Intn(100)
	si := 0
	for r >= sideWeights[si] {
		r -= sideWeights[si]
		si++
	}
	side := querySides[si]
	var x, y uint32
	if g.hot && side == querySides[0] && g.rng.Intn(100) < hotPct {
		x = hotX + uint32(g.rng.Intn(hotSide))
		y = hotY + uint32(g.rng.Intn(hotSide))
	} else {
		x = uint32(g.rng.Intn(gridSide - int(side) + 1))
		y = uint32(g.rng.Intn(gridSide - int(side) + 1))
	}
	return onion.Rect{Lo: onion.Point{x, y}, Hi: onion.Point{x + side - 1, y + side - 1}}, si
}

// sample is a query whose result is checked after the window: its
// rectangle, its planned range count and a fingerprint of its records.
type sample struct {
	rect    onion.Rect
	req     uint64
	planned int
	n       int
	fp      uint64
}

// sampleEvery is the share of queries kept for checking (one in N).
const sampleEvery = 8

// queryAcc sums the per-query Stats of one client.
type queryAcc struct {
	n                                             int64
	planned, shards, subranges, segments, memEnt  int64
	seeks, pages, scanned, results, fetched, hits int64
	sidePlanned, sideN                            [3]int64
	samples                                       []sample
}

func (a *queryAcc) merge(b *queryAcc) {
	a.n += b.n
	a.planned += b.planned
	a.shards += b.shards
	a.subranges += b.subranges
	a.segments += b.segments
	a.memEnt += b.memEnt
	a.seeks += b.seeks
	a.pages += b.pages
	a.scanned += b.scanned
	a.results += b.results
	a.fetched += b.fetched
	for i := range a.sideN {
		a.sidePlanned[i] += b.sidePlanned[i]
		a.sideN[i] += b.sideN[i]
	}
	a.samples = append(a.samples, b.samples...)
}

// fingerprint is an order-independent digest of a record set.
func fingerprint(recs []onion.Record) uint64 {
	var fp uint64
	for _, r := range recs {
		fp += mix(mix(uint64(r.Point[0])<<32|uint64(r.Point[1])) ^ r.Payload)
	}
	return fp
}

// mix is the splitmix64 finalizer.
func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// runQueries runs one closed-loop query client until the window closes:
// the next query is sent only when the previous one has returned.
func (s *system) runQueries(ctx context.Context, w window, gen *queryGen, rec *recorder,
	acc *queryAcc, tr *tracer, reqs *atomic.Uint64) {
	var buf []onion.Record
	for time.Now().Before(w.close) {
		rect, si := gen.next()
		req := reqs.Add(1)
		t := tr.sample(req)
		root := t.id()
		start := time.Now()
		var st onion.ShardedQueryStats
		var err error
		buf, st, err = s.svc.QueryAppendContext(ctx, buf[:0], rect, onion.ShardedQueryPolicy{})
		end := time.Now()
		t.add(0, root, req, "shard.query", start, end)
		if err == nil {
			acc.n++
			acc.planned += int64(st.Planned)
			acc.shards += int64(st.ShardsTouched)
			acc.subranges += int64(st.SubRanges)
			acc.segments += int64(st.Segments)
			acc.memEnt += int64(st.MemEntries)
			acc.seeks += int64(st.Seeks)
			acc.pages += int64(st.PagesRead)
			acc.scanned += int64(st.RecordsScanned)
			acc.results += int64(st.Results)
			acc.fetched += int64(st.IO.PagesFetched)
			acc.sidePlanned[si] += int64(st.Planned)
			acc.sideN[si]++
			if req%sampleEvery == 0 {
				acc.samples = append(acc.samples, sample{rect: rect, req: req, planned: st.Planned,
					n: len(buf), fp: fingerprint(buf)})
			}
		}
		rec.observe(start, end, err)
		t.add(root, 0, req, "bench.query", start, time.Now())
	}
}

// writeGen draws the writes of the single writer: overwrites of
// preloaded points with fresh payloads, applied to the model in issue
// order, which is the order the pipeline preserves for one producer.
type writeGen struct {
	rng *rand.Rand
	m   *model
}

func (g *writeGen) next() (onion.Point, uint64) {
	p := g.m.points[g.rng.Intn(len(g.m.points))]
	v := g.rng.Uint64() | 1
	g.m.payload[cell(p)] = v
	return p, v
}

// pendingWrite is an enqueued write waiting for its ack.
type pendingWrite struct {
	h     *onion.IngestHandle
	p     onion.Point
	start time.Time
	req   uint64
	tr    *tracer // nil when the request is not traced
	span  uint64
}

// runWrites runs the closed-loop writer until the window closes: it
// keeps `outstanding` writes enqueued and issues the next one only when
// an ack frees a slot. Acks are collected by one reaper per ingest
// stripe; a stripe commits its batches in order, so waiting on its
// handles in issue order observes each ack as it lands. runWrites
// returns once every issued write has been acknowledged or has failed.
func (s *system) runWrites(ctx context.Context, w window, outstanding int, gen *writeGen,
	rec *recorder, tr *tracer, reqs *atomic.Uint64) {
	slots := make(chan struct{}, outstanding)
	stripes := make([]chan pendingWrite, s.svc.Shards())
	var wg sync.WaitGroup
	for i := range stripes {
		// Never more than `outstanding` writes are pending in total.
		stripes[i] = make(chan pendingWrite, outstanding)
		wg.Add(1)
		go func(ch chan pendingWrite) {
			defer wg.Done()
			for pw := range ch {
				err := pw.h.Wait(ctx)
				end := time.Now()
				rec.observe(pw.start, end, err)
				pw.tr.add(pw.span, 0, pw.req, "bench.write", pw.start, end)
				if err != nil {
					gen.m.markUncertain(pw.p)
				}
				<-slots
			}
		}(stripes[i])
	}
	for time.Now().Before(w.close) {
		select {
		case slots <- struct{}{}:
		case <-ctx.Done():
		}
		if ctx.Err() != nil {
			break
		}
		p, v := gen.next()
		req := reqs.Add(1)
		t := tr.sample(req)
		root := t.id()
		start := time.Now()
		h, err := s.ing.PutAsync(ctx, p, v)
		t.add(0, root, req, "ingest.enqueue", start, time.Now())
		if err != nil {
			rec.observe(start, time.Now(), err)
			gen.m.markUncertain(p)
			<-slots
			continue
		}
		stripes[s.svc.ShardOf(s.c.Index(p))] <- pendingWrite{h: h, p: p, start: start, req: req, tr: t, span: root}
	}
	for _, ch := range stripes {
		close(ch)
	}
	wg.Wait()
}

// sampler watches a window from its own goroutine: the Go heap every
// 5 ms (kept as one peak per bin, so the reported peak is the median bin
// peak), the ingest queue depth, and every 250 ms the bytes on disk.
type sampler struct {
	stop chan struct{}
	done chan struct{}

	binPeaks []float64 // bytes
	depthSum int64
	depthN   int64
	disk     []float64 // bytes
}

const heapMetric = "/gc/heap/live:bytes"

func startSampler(w window, ing *onion.IngestPipeline, disk func() int64) *sampler {
	sm := &sampler{stop: make(chan struct{}), done: make(chan struct{}), binPeaks: make([]float64, w.bins())}
	go func() {
		defer close(sm.done)
		ms := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		var lastDisk time.Time
		for {
			now := time.Now()
			metrics.Read(ms)
			b := w.bin(now)
			sm.binPeaks[b] = max(sm.binPeaks[b], float64(ms[0].Value.Uint64()))
			sm.depthSum += int64(ing.QueueDepth())
			sm.depthN++
			if now.Sub(lastDisk) >= 250*time.Millisecond {
				sm.disk = append(sm.disk, float64(disk()))
				lastDisk = now
			}
			select {
			case <-sm.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return sm
}

// finish stops the sampler and waits for it to exit.
func (sm *sampler) finish() {
	close(sm.stop)
	<-sm.done
}

// mallocs returns the process's cumulative heap allocation count.
func mallocs() uint64 {
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return st.Mallocs
}
