package pagedstore

import (
	"math/rand"
	"sync"
	"testing"

	"github.com/onioncurve/onion/internal/core"
	"github.com/onioncurve/onion/internal/curve"
	"github.com/onioncurve/onion/internal/geom"
	"github.com/onioncurve/onion/internal/ranges"
	"github.com/onioncurve/onion/internal/vfs"
)

// runCursorQuery executes a rectangle query through a cursor, returning
// the unmarked records plus both the logical and the physical tallies.
func runCursorQuery(t *testing.T, s *Store, r geom.Rect) ([]Record, Stats, IOStats) {
	t.Helper()
	krs, err := ranges.Decompose(s.c, r, 0)
	if err != nil {
		t.Fatal(err)
	}
	cur := s.AcquireCursor()
	defer cur.Release()
	var out []Record
	var rec Record
	for _, kr := range krs {
		cur.SeekRange(kr)
		for {
			marked, ok, err := cur.NextInto(&rec)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			if !marked {
				out = AppendRecord(out, rec.Point, rec.Payload)
			}
		}
	}
	st := cur.Stats()
	st.Results = len(out)
	return out, st, cur.IO()
}

func equalRecs(t *testing.T, r geom.Rect, got, want []Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%v: %d records, want %d", r, len(got), len(want))
	}
	for i := range want {
		if !got[i].Point.Equal(want[i].Point) || got[i].Payload != want[i].Payload {
			t.Fatalf("%v: record %d = %v/%d, want %v/%d",
				r, i, got[i].Point, got[i].Payload, want[i].Point, want[i].Payload)
		}
	}
}

// TestCachedStoreBitIdentical is the core cache contract: the same
// file opened bare and opened behind a tiny (eviction-stormy)
// cache must answer every query with bit-identical records AND logical
// Stats, while the cached side's physical page fetches drop below its
// logical page reads once the working set warms.
func TestCachedStoreBitIdentical(t *testing.T) {
	side := uint32(64)
	o, _ := core.NewOnion2D(side)
	recs := buildRecords(t, o.Universe(), 4000, 7)
	path := tmpPath(t)
	if err := Write(vfs.OS{}, path, o, recs, nil, 512); err != nil {
		t.Fatal(err)
	}
	bare, err := Open(path, o)
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	cache := NewCache(16 * 512) // two pages per cache shard: constant eviction
	cached, err := OpenCached(path, o, cache)
	if err != nil {
		t.Fatal(err)
	}
	defer cached.Close()

	rng := rand.New(rand.NewSource(3))
	var logicalPages, fetched int
	for trial := 0; trial < 200; trial++ {
		lo := geom.Point{uint32(rng.Intn(int(side) - 8)), uint32(rng.Intn(int(side) - 8))}
		r := geom.Rect{Lo: lo, Hi: geom.Point{lo[0] + 7, lo[1] + 7}}
		want, wst, wio := runCursorQuery(t, bare, r)
		got, gst, gio := runCursorQuery(t, cached, r)
		equalRecs(t, r, got, want)
		if gst != wst {
			t.Fatalf("%v: cached stats %+v != bare stats %+v", r, gst, wst)
		}
		// Physical work never exceeds logical work (the fences prune even
		// on the bare store), and the cached side only replaces fetches
		// with hits — it never adds physical reads.
		if wio.PagesFetched > wst.PagesRead || wio.CacheHits != 0 {
			t.Fatalf("%v: bare store io %+v for %d logical reads", r, wio, wst.PagesRead)
		}
		if gio.PagesFetched+gio.CacheHits > gst.PagesRead {
			t.Fatalf("%v: cached store fetched %d + hit %d > %d logical reads",
				r, gio.PagesFetched, gio.CacheHits, gst.PagesRead)
		}
		if gio.PagesFetched > wio.PagesFetched {
			t.Fatalf("%v: cache added physical reads: %d > %d", r, gio.PagesFetched, wio.PagesFetched)
		}
		logicalPages += wio.PagesFetched
		fetched += gio.PagesFetched
	}
	if fetched >= logicalPages {
		t.Fatalf("cache absorbed nothing: %d fetches vs %d bare fetches", fetched, logicalPages)
	}
	cst := cache.Stats()
	if cst.Hits == 0 || cst.Bytes > cst.Budget || cst.Pages > 16 {
		t.Fatalf("cache stats %+v", cst)
	}
}

// logicalStats is the oracle of the logical accounting: the Stats a
// bare store pays reading krs, derived from the page index alone. Each
// range starts at the first page that can hold its low key and visits
// every page whose first key is at most its high key; a page not
// adjacent to the previous visit costs a seek, a page shared with the
// previous range is read once, and every visit scans the whole page.
// Results is left to the caller.
func logicalStats(s *Store, krs []curve.KeyRange) Stats {
	var st Stats
	last := -2
	for _, kr := range krs {
		p := 0
		for p+1 < len(s.firstKeys) && s.firstKeys[p+1] < kr.Lo {
			p++
		}
		for ; p < len(s.firstKeys) && s.firstKeys[p] <= kr.Hi; p++ {
			if p != last && p != last+1 {
				st.Seeks++
			}
			if p != last {
				st.PagesRead++
				last = p
			}
			st.RecordsScanned += s.residentCount(p)
		}
	}
	return st
}

// TestFilterAndFencePruning: point lookups for absent keys and ranges
// that fall in inter-page gaps are answered without any physical read,
// while the logical Stats of every query stay exactly what logicalStats
// derives from the plan and the page index — pruning never changes the
// logical accounting.
func TestFilterAndFencePruning(t *testing.T) {
	side := uint32(64)
	o, _ := core.NewOnion2D(side)
	u := o.Universe()
	// A sparse store: every 5th curve key, so plenty of absent keys.
	var recs []Record
	p := make(geom.Point, 2)
	for key := uint64(0); key < u.Size(); key += 5 {
		o.Coords(key, p)
		recs = append(recs, Record{Point: p.Clone(), Payload: key})
	}
	path := tmpPath(t)
	if err := Write(vfs.OS{}, path, o, recs, nil, 512); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path, o)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	check := func(r geom.Rect, want []Record) IOStats {
		t.Helper()
		got, gst, gio := runCursorQuery(t, s, r)
		equalRecs(t, r, got, want)
		krs, err := ranges.Decompose(o, r, 0)
		if err != nil {
			t.Fatal(err)
		}
		wst := logicalStats(s, krs)
		wst.Results = len(want)
		if gst != wst {
			t.Fatalf("%v: stats %+v, oracle %+v", r, gst, wst)
		}
		return gio
	}

	var pruned int
	for key := uint64(0); key < u.Size(); key++ {
		o.Coords(key, p)
		r := geom.Rect{Lo: p.Clone(), Hi: p.Clone()}
		var want []Record
		if key%5 == 0 {
			want = []Record{{Point: p.Clone(), Payload: key}}
		}
		gio := check(r, want)
		// Absent key: the Bloom filter (no false negatives on the present
		// keys is checked above by the record equality) lets most lookups
		// skip the fetch entirely.
		if key%5 != 0 && gio.PagesFetched == 0 && gio.CacheHits == 0 {
			pruned++
		}
	}
	// With ~10 bits/key the false positive rate is ~1%; demand the
	// overwhelming majority of absent-point lookups were free.
	absent := int(u.Size()) - len(recs)
	if pruned < absent*9/10 {
		t.Fatalf("only %d of %d absent lookups pruned", pruned, absent)
	}

	// Rectangles: the fences prune leading pages, the accounting stays
	// the plan's. The expected records come in curve-key order.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		lo := geom.Point{uint32(rng.Intn(int(side))), uint32(rng.Intn(int(side)))}
		hi := geom.Point{lo[0] + uint32(rng.Intn(int(side-lo[0]))), lo[1] + uint32(rng.Intn(int(side-lo[1])))}
		r := geom.Rect{Lo: lo, Hi: hi}
		var want []Record
		for _, rec := range recs {
			if r.Contains(rec.Point) {
				want = append(want, rec)
			}
		}
		check(r, want)
	}
}

// TestFilterNoFalseNegatives: every inserted key answers mayContain.
func TestFilterNoFalseNegatives(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	keys := make([]uint64, 10000)
	for i := range keys {
		keys[i] = rng.Uint64()
	}
	f := buildFilter(keys)
	for _, k := range keys {
		if !f.mayContain(k) {
			t.Fatalf("false negative for key %d", k)
		}
	}
	// And the false positive rate on fresh random keys is sane.
	fp := 0
	for i := 0; i < 10000; i++ {
		if f.mayContain(rng.Uint64()) {
			fp++
		}
	}
	if fp > 500 { // ~1% expected; 5% is a hard failure
		t.Fatalf("%d/10000 false positives", fp)
	}
}

// TestFilterRoundTrip: marshal/unmarshal preserves the filter bit for
// bit, and the empty-section encoding round-trips to nil.
func TestFilterRoundTrip(t *testing.T) {
	f := buildFilter([]uint64{1, 99, 12345, 1 << 40})
	g, ok := unmarshalFilter(f.marshal())
	if !ok || g == nil || g.k != f.k || len(g.words) != len(f.words) {
		t.Fatalf("round trip: %+v -> %+v (ok=%v)", f, g, ok)
	}
	for i := range f.words {
		if f.words[i] != g.words[i] {
			t.Fatalf("word %d differs", i)
		}
	}
	if n, ok := unmarshalFilter((*keyFilter)(nil).marshal()); !ok || n != nil {
		t.Fatalf("empty filter round trip: %v ok=%v", n, ok)
	}
	if _, ok := unmarshalFilter([]byte{1, 2, 3}); ok {
		t.Fatal("truncated filter accepted")
	}
}

// TestCachePurgeOnClose: closing a store drops its pages from the shared
// cache so a dead segment stops occupying budget.
func TestCachePurgeOnClose(t *testing.T) {
	side := uint32(32)
	o, _ := core.NewOnion2D(side)
	recs := buildRecords(t, o.Universe(), 1000, 5)
	path := tmpPath(t)
	if err := Write(vfs.OS{}, path, o, recs, nil, 512); err != nil {
		t.Fatal(err)
	}
	cache := NewCache(1 << 20)
	s, err := OpenCached(path, o, cache)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Query(o.Universe().Rect()); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Pages == 0 {
		t.Fatalf("nothing cached: %+v", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Pages != 0 || st.Bytes != 0 {
		t.Fatalf("pages survive close: %+v", st)
	}
}

// TestCachedParallelQueryRace hammers one cached store (cache small
// enough for eviction storms) from many goroutines; run under -race this
// pins the concurrency safety of the cache fast paths.
func TestCachedParallelQueryRace(t *testing.T) {
	side := uint32(64)
	o, _ := core.NewOnion2D(side)
	recs := buildRecords(t, o.Universe(), 5000, 21)
	path := tmpPath(t)
	if err := Write(vfs.OS{}, path, o, recs, nil, 512); err != nil {
		t.Fatal(err)
	}
	cache := NewCache(8 * 512)
	s, err := OpenCached(path, o, cache)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	want, wantStats, err := s.Query(o.Universe().Rect())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				got, st, err := s.Query(o.Universe().Rect())
				if err != nil {
					t.Error(err)
					return
				}
				if len(got) != len(want) || st != wantStats {
					t.Errorf("goroutine %d: %d records stats %+v, want %d %+v",
						g, len(got), st, len(want), wantStats)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestCacheMonotonicCounters pins the counter semantics of CacheStats:
// hits/misses/evictions/admission-rejects only ever grow, stay
// consistent under concurrent access, and the lock-free Counters()
// accessor reads the same values as a full Stats() snapshot.
func TestCacheMonotonicCounters(t *testing.T) {
	c := NewCache(cacheShardCount * 64) // one tiny 64-byte budget per shard
	page := make([]byte, 64)

	// Miss then hit on the same key.
	if _, ok := c.get(1, 0); ok {
		t.Fatal("unexpected hit on empty cache")
	}
	c.addCopy(1, 0, page)
	if _, ok := c.get(1, 0); !ok {
		t.Fatal("expected hit after addCopy")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 1/1", st.Hits, st.Misses)
	}

	// Oversized pages are rejected by admission, not silently dropped.
	big := make([]byte, 1024)
	c.addCopy(1, 99, big)
	if got := c.Stats().AdmissionRejects; got == 0 {
		t.Fatalf("oversized insert should count as admission reject")
	}

	// Hammer one shard's budget: every insert beyond capacity either
	// evicts (counter grows) or is gated (reject counter grows).
	for i := 0; i < 1000; i++ {
		c.addCopy(2, i, page)
	}
	st = c.Stats()
	if st.Evictions+st.AdmissionRejects < 900 {
		t.Fatalf("expected ~1000 evictions+rejects under pressure, got %d+%d",
			st.Evictions, st.AdmissionRejects)
	}

	// Counters() and Stats() read the same atomics.
	h, m, e, a := c.Counters()
	st = c.Stats()
	if h != st.Hits || m != st.Misses || e != st.Evictions || a != st.AdmissionRejects {
		t.Fatalf("Counters() = %d/%d/%d/%d, Stats = %+v", h, m, e, a, st)
	}

	// Monotonic under concurrency: sample repeatedly while another
	// goroutine churns the cache.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 5000; i++ {
			c.addCopy(3, i, page)
			c.get(3, i)
		}
	}()
	var prev CacheStats
	for i := 0; i < 1000; i++ {
		cur := c.Stats()
		if cur.Hits < prev.Hits || cur.Misses < prev.Misses ||
			cur.Evictions < prev.Evictions || cur.AdmissionRejects < prev.AdmissionRejects {
			t.Fatalf("counters went backwards: %+v then %+v", prev, cur)
		}
		prev = cur
	}
	<-done
}
