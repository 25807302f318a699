package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	onion "github.com/onioncurve/onion"
	"github.com/onioncurve/onion/internal/curve"
)

// histMean is the mean of the samples a histogram gained between two
// snapshots (0 when it gained none).
func histMean(a, b onion.TelemetrySnapshot, name string) float64 {
	hb := b.Hist(name)
	if hb == nil {
		return 0
	}
	count, sum := hb.Count, hb.Sum
	if ha := a.Hist(name); ha != nil {
		count -= ha.Count
		sum -= ha.Sum
	}
	if count == 0 {
		return 0
	}
	return float64(sum) / float64(count)
}

func counterDelta(a, b onion.TelemetrySnapshot, name string) float64 {
	return float64(b.Counter(name) - a.Counter(name))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// spanStats returns the span roll-up by name.
func spanStats(tr *tracer) map[string]spanSummary {
	spans, _ := tr.snapshot()
	out := map[string]spanSummary{}
	for _, s := range summarize(spans) {
		out[s.Name] = s
	}
	return out
}

// layerMetrics fills the traced run's per-layer metrics. qp is the phase
// the queries ran in and wp the phase the writes ran in (the same phase
// on mixed-solo); untraced is the untraced half of the window, the
// baseline of the tracing overhead.
func layerMetrics(res *result, s *system, qp, wp, traced, untraced *phase, tr *tracer) {
	set := func(name string, v float64, unit string) { res.Metrics[name] = metric{v, unit} }
	q, qa, qb := &qp.acc, qp.before, qp.after
	nq := float64(q.n)
	wa, wb := wp.before, wp.after
	wr := wp.w.result()
	acked := float64(wr.attempted - wr.failed)
	spans := spanStats(tr)

	// core: the planner, timed by the benchmark's own call per sampled rect.
	planner := s.c.(curve.RangeAppender)
	var planUS []float64
	var buf []onion.KeyRange
	for _, sm := range q.samples {
		start := time.Now()
		buf = planner.DecomposeRectAppend(sm.rect, buf[:0])
		end := time.Now()
		tr.add(0, 0, sm.req, "core.plan", start, end)
		planUS = append(planUS, float64(end.Sub(start).Nanoseconds())/1e3)
	}
	set("core.plan_us", mean(planUS), "us")
	set("core.ranges_per_query", ratio(float64(q.planned), nq), "count")
	u := s.c.Universe()
	for i, side := range querySides {
		lb, err := onion.LowerBoundGeneral(u, []uint32{side, side})
		if err != nil {
			res.fail("lower bound for side %d: %v", side, err)
			continue
		}
		mean := ratio(float64(q.sidePlanned[i]), float64(q.sideN[i]))
		set(fmt.Sprintf("core.ranges_over_lower_bound.side%d", side), mean/lb, "ratio")
	}

	// shard: the router.
	set("shard.query_us", spans["shard.query"].MeanUS, "us")
	set("shard.admission_wait_us", histMean(qa.tel, qb.tel, "router_admission_wait_us"), "us")
	set("shard.fanout_shards", ratio(float64(q.shards), nq), "count")
	set("shard.subranges_per_query", ratio(float64(q.subranges), nq), "count")

	// engine, read side.
	set("engine.query_us", histMean(qa.tel, qb.tel, "engine_query_latency_us"), "us")
	set("engine.segments_per_query", ratio(float64(q.segments), nq), "count")
	set("engine.mem_entries_per_query", ratio(float64(q.memEnt), nq), "count")
	set("engine.seeks_per_query", ratio(float64(q.seeks), nq), "count")
	set("engine.pages_read_per_query", ratio(float64(q.pages), nq), "count")
	set("engine.scanned_per_result", ratio(float64(q.scanned), float64(q.results)), "ratio")

	// engine, write side.
	set("engine.wal_fsync_us", histMean(wa.tel, wb.tel, "engine_wal_fsync_us"), "us")
	set("engine.fsyncs_per_kwrite", 1000*ratio(counterDelta(wa.tel, wb.tel, "engine_wal_fsyncs_total"), acked), "count")
	set("engine.group_commit_batch", histMean(wa.tel, wb.tel, "engine_wal_group_commit_batch"), "count")
	set("engine.flush_us", histMean(wa.tel, wb.tel, "engine_flush_us"), "us")
	set("engine.compaction_us", histMean(wa.tel, wb.tel, "engine_compaction_us"), "us")
	set("engine.compaction_rewritten_per_write",
		ratio(counterDelta(wa.tel, wb.tel, "engine_compaction_records_in_total"), acked), "ratio")

	// pagedstore: the shared page cache.
	hits := float64(qb.cache.Hits - qa.cache.Hits)
	misses := float64(qb.cache.Misses - qa.cache.Misses)
	set("pagedstore.cache_hit_rate", ratio(hits, hits+misses), "ratio")
	set("pagedstore.cache_evictions_per_query", ratio(float64(qb.cache.Evictions-qa.cache.Evictions), nq), "count")
	set("pagedstore.cache_admission_rejects_per_query",
		ratio(float64(qb.cache.AdmissionRejects-qa.cache.AdmissionRejects), nq), "count")
	set("pagedstore.pages_fetched_per_query", ratio(float64(q.fetched), nq), "count")
	set("pagedstore.allocs_per_query", ratio(float64(qb.mallocs-qa.mallocs), nq), "count")

	// ingest: the async write front-end.
	set("ingest.enqueue_us", spans["ingest.enqueue"].MeanUS, "us")
	set("ingest.ops_per_batch", histMean(wa.ing, wb.ing, "ingest_batch_ops"), "count")
	set("ingest.queue_depth", wp.depthMean, "count")
	set("ingest.backpressure_rejects", counterDelta(wa.ing, wb.ing, "ingest_backpressure_rejects_total"), "count")
	set("ingest.ack_wait_us", spans["bench.write"].MeanSelfUS, "us")

	// repl: quorum replication (idle unless the workload replicates).
	set("repl.quorum_us", histMean(wa.tel, wb.tel, "repl_quorum_latency_us"), "us")
	set("repl.appends_per_batch", ratio(counterDelta(wa.tel, wb.tel, "repl_appends_total"),
		counterDelta(wa.tel, wb.tel, "repl_batches_total")), "count")
	set("repl.entries_shipped_per_write", ratio(counterDelta(wa.tel, wb.tel, "repl_entries_shipped_total"), acked), "ratio")
	set("repl.send_errors", counterDelta(wa.tel, wb.tel, "repl_send_errors_total"), "count")
	set("repl.follower_lag_end", float64(wp.lagEnd), "count")

	// vfs: the device-layer probe.
	var qio, wio, wal, seg ioTotals
	for c := range numClasses {
		qio = qio.add(qb.io[c].sub(qa.io[c]))
		wio = wio.add(wb.io[c].sub(wa.io[c]))
	}
	wal = wb.io[classWAL].sub(wa.io[classWAL])
	seg = wb.io[classSegment].sub(wa.io[classSegment])
	userBytes := acked * userRecordBytes
	set("vfs.read_calls_per_query", ratio(float64(qio.Reads), nq), "count")
	set("vfs.read_bytes_per_query", ratio(float64(qio.ReadBytes), nq), "bytes")
	set("vfs.read_us", ratio(float64(qio.ReadNS), float64(qio.Reads))/1e3, "us")
	set("vfs.sync_us", ratio(float64(wio.SyncNS), float64(wio.Syncs))/1e3, "us")
	set("vfs.syncs_per_kwrite", 1000*ratio(float64(wio.Syncs), acked), "count")
	set("vfs.write_bytes_per_user_byte", ratio(float64(wio.WriteBytes), userBytes), "ratio")
	set("vfs.wal_write_bytes_per_user_byte", ratio(float64(wal.WriteBytes), userBytes), "ratio")
	set("vfs.segment_write_bytes_per_user_byte", ratio(float64(seg.WriteBytes), userBytes), "ratio")

	// The benchmark's own share of a request, and what tracing costs.
	set("bench.query_self_us", spans["bench.query"].MeanSelfUS, "us")
	base, got := untraced.q.result().perSec, traced.q.result().perSec
	if traced.acc.n == 0 {
		base, got = untraced.w.result().perSec, traced.w.result().perSec
	}
	set("trace.overhead_pct", 100*ratio(base-got, base), "%")
}

// traceSummary is the traced run's summary file.
type traceSummary struct {
	Workload   string                 `json:"workload"`
	Seed       int64                  `json:"seed"`
	Metrics    map[string]metric      `json:"metrics"`
	Spans      []spanSummary          `json:"spans"`
	Kept       int                    `json:"spans_kept"`
	Dropped    int                    `json:"spans_dropped"`
	VFSByClass map[string][2]ioTotals `json:"vfs_by_class_query_write_phase"`
	CPUTop     []string               `json:"cpu_top_self"`
	AllocTop   []string               `json:"alloc_top_window"`
	ProfileErr string                 `json:"profile_error,omitempty"`
}

// writeTrace writes the spans, the span roll-up, the per-class device
// counters and the top profile entries under the run's trace directory.
func writeTrace(name string, seed int64, res *result, tr *tracer, probe *probeFS, qp, wp *phase) error {
	dir := traceDir(name, seed)
	spans, dropped := tr.snapshot()
	if err := writeSpans(filepath.Join(dir, "spans.jsonl"), spans); err != nil {
		return err
	}
	sum := traceSummary{Workload: name, Seed: seed, Metrics: res.Metrics, Spans: summarize(spans),
		Kept: len(spans), Dropped: dropped, VFSByClass: map[string][2]ioTotals{}}
	for c := range numClasses {
		sum.VFSByClass[classNames[c]] = [2]ioTotals{
			qp.after.io[c].sub(qp.before.io[c]), wp.after.io[c].sub(wp.before.io[c])}
	}
	var err error
	if sum.CPUTop, err = topFunctions("-top", "-nodecount=15", filepath.Join(dir, "cpu.pprof")); err == nil {
		sum.AllocTop, err = topFunctions("-top", "-nodecount=15", "-sample_index=alloc_space",
			"-diff_base", filepath.Join(dir, "allocs-start.pprof"), filepath.Join(dir, "allocs-end.pprof"))
	}
	if err != nil {
		// A missing go toolchain leaves the raw profiles in place; the
		// measured metrics stand either way.
		sum.ProfileErr = err.Error()
		fmt.Fprintf(os.Stderr, "perfbench: profile summary: %v\n", err)
	}
	for i, l := range sum.CPUTop {
		if i < 8 {
			fmt.Fprintf(os.Stderr, "%s cpu: %s\n", name, l)
		}
	}
	body, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "summary.json"), body, 0o644)
}

// topFunctions runs `go tool pprof` with args and returns the entry
// lines of its -top table.
func topFunctions(args ...string) ([]string, error) {
	out, err := exec.Command("go", append([]string{"tool", "pprof"}, args...)...).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof %v: %w", args, err)
	}
	var lines []string
	body := false
	for _, l := range strings.Split(string(out), "\n") {
		switch {
		case strings.Contains(l, "flat%"):
			body = true
		case body && strings.TrimSpace(l) != "":
			lines = append(lines, strings.TrimSpace(l))
		}
	}
	return lines, nil
}
