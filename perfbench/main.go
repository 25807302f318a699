// Command perfbench is the repository's end-to-end benchmark. It drives
// three fixed workloads through the public facade of the sharded,
// optionally replicated storage stack (router -> engine -> paged store ->
// filesystem, with the async ingest pipeline and quorum replication on
// the write path) and checks every result it measures.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload read-skew-midcache --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --workload all
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// runs a separate traced window and reports the per-layer metrics, and
// writes spans, profiles and a summary under
// .bench_build/perfbench/trace/. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}. The
// command exits non-zero when any correctness check fails. README.md in
// this directory explains the workloads and what each metric predicts.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	onion "github.com/onioncurve/onion"
	"github.com/onioncurve/onion/internal/vfs"
)

// spec fixes one workload: the service it opens and the load it drives.
type spec struct {
	name string

	shards       int
	cacheBytes   int64
	replicas     int
	flushEntries int
	preload      int  // distinct records loaded during set-up
	compact      bool // flush and fully compact after the preload

	queryClients int  // closed-loop query clients in the window
	hot          bool // skewed query origins
	outstanding  int  // writes the closed-loop writer keeps in flight; 0 = no writer
}

var workloads = []spec{
	{
		// Skewed range reads over compacted data about 20x a 256 KiB
		// cache: every read layer works, every write layer idles.
		name:   "read-skew-midcache",
		shards: 4, cacheBytes: 256 << 10, flushEntries: 8192, preload: 200_000, compact: true,
		queryClients: 2, hot: true,
	},
	{
		// Closed-loop durable ingest into a 3-replica quorum group whose
		// resend history is full: the steady replicated write path.
		name:   "ingest-r3",
		shards: 1, replicas: 2, preload: historyEntries + 256,
		outstanding: 64,
	},
	{
		// One query client beside one writer on 4 unreplicated shards
		// whose data fits an 8 MiB cache, with flushes and compactions.
		name:   "mixed-solo",
		shards: 4, cacheBytes: 8 << 20, flushEntries: 8192, preload: 100_000, compact: true,
		queryClients: 1, outstanding: 4096,
	},
}

const (
	setupRepeats = 7               // set-ups per run; setup_s is their median
	warmup       = time.Second     // unmeasured load before the window
	probeFor     = 8 * time.Second // the probe of the op class a window lacks
	probeWrites  = 4096            // writes in flight during a write probe: the mixed-solo writer
	maxSpans     = 1 << 20
	runTimeout   = 170 * time.Second
)

func main() {
	var (
		workload = flag.String("workload", "all", "workload name, or all")
		seed     = flag.Int64("seed", 1, "input seed")
		seconds  = flag.Int("seconds", 10, "measurement window in seconds")
		trace    = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	)
	flag.Parse()
	if *seconds < 1 {
		fatalf("--seconds must be at least 1")
	}
	var run []spec
	for _, sp := range workloads {
		if *workload == "all" || *workload == sp.name {
			run = append(run, sp)
		}
	}
	if len(run) == 0 {
		fatalf("unknown workload %q", *workload)
	}
	traces := []bool{*trace == 1}
	if *workload == "all" {
		traces = []bool{false, true}
	}
	out := result{Correct: true, Metrics: map[string]metric{}}
	for _, sp := range run {
		for _, tr := range traces {
			r, err := runOne(sp, *seed, time.Duration(*seconds)*time.Second, tr)
			if err != nil {
				fatalf("%s: %v", sp.name, err)
			}
			printHuman(sp.name, tr, r)
			out.Correct = out.Correct && r.Correct
			out.Attempted += r.Attempted
			out.Failed += r.Failed
			for k, v := range r.Metrics {
				if len(run) > 1 {
					k = sp.name + "." + k
				}
				out.Metrics[k] = v
			}
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	failures []string
	extra    map[string]metric // printed, not part of the JSON metrics
}

func (r *result) fail(format string, args ...any) {
	r.Correct = false
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

func printHuman(name string, traced bool, r *result) {
	mode := "end-to-end"
	if traced {
		mode = "per-layer"
	}
	all := map[string]metric{}
	for k, v := range r.Metrics {
		all[k] = v
	}
	for k, v := range r.extra {
		all[k] = v
	}
	keys := make([]string, 0, len(all))
	for k := range all {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Printf("# %s (%s): attempted %d, failed %d, correct %v\n", name, mode, r.Attempted, r.Failed, r.Correct)
	for _, k := range keys {
		fmt.Printf("%-20s %-44s %14.4f %s\n", name, k, all[k].Value, all[k].Unit)
	}
	for _, f := range r.failures {
		fmt.Printf("%-20s CHECK FAILED: %s\n", name, f)
	}
}

// runOne sets the workload up setupRepeats times, keeps the last service,
// drives the window and the probe, and checks the results.
func runOne(sp spec, seed int64, d time.Duration, traced bool) (*result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	base := filepath.Join(".bench_build", "perfbench", fmt.Sprintf("run-%d", os.Getpid()))
	defer os.RemoveAll(base)

	var fsys vfs.FS
	var probe *probeFS
	if traced {
		fsys, probe = newProbe(vfs.OS{})
	}
	res := &result{Correct: true, Metrics: map[string]metric{}, extra: map[string]metric{}}
	var s *system
	setups := make([]float64, setupRepeats)
	for i := range setups {
		dir := filepath.Join(base, fmt.Sprintf("setup-%d", i))
		start := time.Now()
		var err error
		s, err = open(ctx, sp, dir, seed, fsys)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups[i] = time.Since(start).Seconds()
		if i < len(setups)-1 {
			// The directory stays until the run ends: deleting it now
			// would put the filesystem's block discards into the window.
			if err := s.close(); err != nil {
				return nil, fmt.Errorf("set-up close: %w", err)
			}
		}
	}
	defer s.close()

	var reqs atomic.Uint64
	var phases []*phase // every phase run, for the attempted and failed tallies
	run := func(dur time.Duration, ld load, phaseSeed int64, t *tracer, pf *probeFS) *phase {
		p := s.runPhase(ctx, dur, ld, phaseSeed, t, pf, &reqs)
		phases = append(phases, p)
		return p
	}
	win := load{queryClients: sp.queryClients, hot: sp.hot, outstanding: sp.outstanding}
	run(warmup, win, seed*7919+1, nil, nil)

	var measured, untracedHalf *phase
	var tr *tracer
	if traced {
		untracedHalf = run(d/2, win, seed*7919+2, nil, probe)
		tr = newTracer(maxSpans)
		prof, err := startProfiles(sp.name, seed)
		if err != nil {
			return nil, err
		}
		measured = run(d-d/2, win, seed*7919+3, tr, probe)
		if err := prof.stop(); err != nil {
			return nil, fmt.Errorf("profiles: %w", err)
		}
	} else {
		measured = run(d, win, seed*7919+3, nil, nil)
	}
	s.checkSamples(res, measured, sp.outstanding == 0)
	s.settle(ctx, res)

	// The class of operation the window lacks is measured by a probe on
	// the settled service: the window's writes are drained and
	// replicated, so the probe measures its own class alone.
	qp, wp := measured, measured
	var pl load
	switch {
	case sp.queryClients == 0:
		pl.queryClients = 1
	case sp.outstanding == 0:
		pl.outstanding = probeWrites
	}
	if pl != (load{}) {
		if pl.queryClients > 0 {
			// Queries read the written data from segments, as on the
			// other workloads, not from the memtable alone.
			if err := s.svc.Flush(); err != nil {
				return nil, fmt.Errorf("flush before the query probe: %w", err)
			}
		}
		run(warmup, pl, seed*7919+4, nil, nil)
		p := run(probeFor, pl, seed*7919+5, tr, probe)
		if pl.queryClients > 0 {
			qp = p
			s.checkSamples(res, qp, true)
		} else {
			wp = p
			s.settle(ctx, res)
		}
	}
	for _, p := range phases {
		q, w := p.q.result(), p.w.result()
		res.Attempted += q.attempted + w.attempted
		res.Failed += q.failed + w.failed
	}

	if err := s.svc.Flush(); err != nil {
		return nil, fmt.Errorf("final flush: %w", err)
	}
	live := s.checkAll(ctx, res)

	if traced {
		layerMetrics(res, s, qp, wp, measured, untracedHalf, tr)
		if err := writeTrace(sp.name, seed, res, tr, probe, qp, wp); err != nil {
			return nil, err
		}
	} else {
		q, w := qp.q.result(), wp.w.result()
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		res.Metrics["queries_per_s"] = metric{q.perSec, "1/s"}
		res.Metrics["query_p50_us"] = metric{q.p50US, "us"}
		res.Metrics["query_p99_us"] = metric{q.p99US, "us"}
		res.Metrics["writes_per_s"] = metric{w.perSec, "1/s"}
		res.Metrics["write_ack_p50_us"] = metric{w.p50US, "us"}
		res.Metrics["write_ack_p99_us"] = metric{w.p99US, "us"}
		res.Metrics["heap_peak_mib"] = metric{measured.peakHeap / (1 << 20), "MiB"}
		res.Metrics["space_amp"] = metric{measured.diskBytes / float64(live*userRecordBytes), "ratio"}
		res.extra["space_amp_end"] = metric{float64(s.diskBytes()) / float64(live*userRecordBytes), "ratio"}
		res.extra["failed_frac"] = metric{float64(res.Failed) / float64(max(res.Attempted, 1)), "ratio"}
		res.extra["query_samples"] = metric{float64(q.done), "count"}
		res.extra["write_samples"] = metric{float64(w.done), "count"}
	}
	if err := s.close(); err != nil {
		res.fail("close: %v", err)
	}
	return res, nil
}

// load is what a phase drives: closed-loop query clients and a writer.
type load struct {
	queryClients int
	hot          bool
	outstanding  int
}

// capture is the state of every counter source at one instant.
type capture struct {
	tel, ing onion.TelemetrySnapshot
	cache    onion.PageCacheStats
	mallocs  uint64
	io       [numClasses]ioTotals
}

func (s *system) capture(probe *probeFS) capture {
	c := capture{ing: s.ing.Telemetry().Snapshot(), cache: s.svc.CacheStats(), mallocs: mallocs()}
	if s.rep != nil {
		c.tel = s.rep.TelemetrySnapshot()
	} else {
		c.tel = s.svc.TelemetrySnapshot()
	}
	if probe != nil {
		c.io = probe.totals()
	}
	return c
}

// phase is one run of a load over a window, with the counter state
// before and after it.
type phase struct {
	q, w          *recorder
	acc           queryAcc
	before, after capture
	peakHeap      float64 // median of the per-bin heap peaks
	diskBytes     float64 // median of the on-disk size samples
	depthMean     float64
	lagEnd        uint64
}

// runPhase drives ld for d and waits for every request it issued.
func (s *system) runPhase(ctx context.Context, d time.Duration, ld load, seed int64,
	tr *tracer, probe *probeFS, reqs *atomic.Uint64) *phase {
	// Collect the set-up's and the previous phase's garbage first, so the
	// heap peak reflects this phase rather than the pacer's history.
	runtime.GC()
	p := &phase{before: s.capture(probe)}
	now := time.Now()
	w := window{open: now, close: now.Add(d)}
	p.q, p.w = newRecorder(w), newRecorder(w)
	sm := startSampler(w, s.ing, s.diskBytes)
	accs := make([]queryAcc, ld.queryClients)
	var wg sync.WaitGroup
	for i := range accs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			gen := &queryGen{rng: rand.New(rand.NewSource(seed*31 + int64(i))), hot: ld.hot}
			s.runQueries(ctx, w, gen, p.q, &accs[i], tr, reqs)
		}(i)
	}
	if ld.outstanding > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			gen := &writeGen{rng: rand.New(rand.NewSource(seed*31 + 17)), m: s.m}
			s.runWrites(ctx, w, ld.outstanding, gen, p.w, tr, reqs)
		}()
	}
	wg.Wait()
	sm.finish()
	p.peakHeap = median(sm.binPeaks)
	p.diskBytes = median(sm.disk)
	if sm.depthN > 0 {
		p.depthMean = float64(sm.depthSum) / float64(sm.depthN)
	}
	if s.rep != nil {
		for _, lag := range s.rep.Lag() {
			p.lagEnd = max(p.lagEnd, lag)
		}
	}
	for i := range accs {
		p.acc.merge(&accs[i])
	}
	p.after = s.capture(probe)
	return p
}

// checkSamples verifies the sampled queries of a phase: every one's
// planned range count must equal the curve's clustering number for its
// rectangle, and, when no write ran beside the queries, its records must
// equal a brute-force filter of the model.
func (s *system) checkSamples(res *result, p *phase, stable bool) {
	for _, sm := range p.acc.samples {
		want, err := onion.ClusterCount(s.c, sm.rect)
		if err != nil {
			res.fail("cluster count %v: %v", sm.rect, err)
			continue
		}
		if uint64(sm.planned) != want {
			res.fail("query %v planned %d ranges, clustering number is %d", sm.rect, sm.planned, want)
		}
		if !stable {
			continue
		}
		n, fp := s.m.bruteForce(sm.rect)
		if n != sm.n || fp != sm.fp {
			res.fail("query %v returned %d records (digest %x), brute force finds %d (digest %x)",
				sm.rect, sm.n, sm.fp, n, fp)
		}
	}
}

// bruteForce returns the count and fingerprint of the model's records
// inside r.
func (m *model) bruteForce(r onion.Rect) (int, uint64) {
	var recs []onion.Record
	for y := r.Lo[1]; y <= r.Hi[1]; y++ {
		for x := r.Lo[0]; x <= r.Hi[0]; x++ {
			if v := m.payload[int(y)*gridSide+int(x)]; v != 0 {
				recs = append(recs, onion.Record{Point: onion.Point{x, y}, Payload: v})
			}
		}
	}
	return len(recs), fingerprint(recs)
}

// checkAll reads the whole grid back from the leader and compares it
// with the model: every acknowledged write must be there, exactly once.
// It returns the number of live records.
func (s *system) checkAll(ctx context.Context, res *result) int {
	all := onion.Rect{Lo: onion.Point{0, 0}, Hi: onion.Point{gridSide - 1, gridSide - 1}}
	recs, _, err := s.svc.QueryAppendContext(ctx, nil, all, onion.ShardedQueryPolicy{})
	if err != nil {
		res.fail("full read-back: %v", err)
		return len(s.m.points)
	}
	seen := make([]bool, len(s.m.payload))
	bad := 0
	for _, r := range recs {
		c := cell(r.Point)
		if seen[c] || s.m.payload[c] == 0 || (r.Payload != s.m.payload[c] && !s.m.uncertain[c]) {
			bad++
		}
		seen[c] = true
	}
	if bad > 0 || len(recs) != len(s.m.points) {
		res.fail("read-back: %d records, %d expected, %d wrong or duplicated", len(recs), len(s.m.points), bad)
	}
	return len(s.m.points)
}

// settle drains the ingest pipeline and, on a replicated service, waits
// for the followers to converge.
func (s *system) settle(ctx context.Context, res *result) {
	if err := s.ing.Drain(ctx); err != nil {
		res.fail("ingest drain: %v", err)
	}
	if s.rep != nil {
		s.checkConverged(ctx, res)
	}
}

// checkConverged drives catch-up rounds until every follower has acked
// the leader's last entry.
func (s *system) checkConverged(ctx context.Context, res *result) {
	deadline := time.Now().Add(20 * time.Second)
	for {
		s.rep.Heartbeat()
		var worst uint64
		for _, lag := range s.rep.Lag() {
			worst = max(worst, lag)
		}
		if worst == 0 {
			return
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			res.fail("followers did not converge: lag %d entries", worst)
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// profiles records a CPU profile over the traced window and allocation
// profiles at both of its ends.
type profiles struct {
	dir string
	cpu *os.File
}

func traceDir(name string, seed int64) string {
	return filepath.Join(".bench_build", "perfbench", "trace", fmt.Sprintf("%s-seed%d", name, seed))
}

func startProfiles(name string, seed int64) (*profiles, error) {
	p := &profiles{dir: traceDir(name, seed)}
	if err := os.MkdirAll(p.dir, 0o755); err != nil {
		return nil, err
	}
	if err := writeHeapProfile(filepath.Join(p.dir, "allocs-start.pprof")); err != nil {
		return nil, err
	}
	f, err := os.Create(filepath.Join(p.dir, "cpu.pprof"))
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	p.cpu = f
	return p, nil
}

func (p *profiles) stop() error {
	pprof.StopCPUProfile()
	return errors.Join(p.cpu.Close(), writeHeapProfile(filepath.Join(p.dir, "allocs-end.pprof")))
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
