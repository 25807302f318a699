package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"

	onion "github.com/onioncurve/onion"
	"github.com/onioncurve/onion/internal/engine"
	"github.com/onioncurve/onion/internal/vfs"
)

const (
	gridSide = 1024
	// userRecordBytes is what a user stores per record: two uint32
	// coordinates and a uint64 payload. The curve key is derived.
	userRecordBytes = 16
	// historyEntries is the replication resend window (the repl default,
	// stated here so the ingest-r3 set-up can check it filled).
	historyEntries = 1 << 14
)

// model is the benchmark's own copy of what the store must hold: a dense
// grid of payloads (0 = no record) plus the preloaded points that writes
// overwrite. Only the writer goroutine changes payload; reapers mark the
// cells whose write failed, whose final value is then unknown.
type model struct {
	payload []uint64
	points  []onion.Point

	mu        sync.Mutex
	uncertain map[int]bool
}

func cell(p onion.Point) int { return int(p[1])*gridSide + int(p[0]) }

// newModel draws n distinct points with nonzero payloads from seed.
func newModel(seed int64, n int) *model {
	rng := rand.New(rand.NewSource(seed))
	m := &model{payload: make([]uint64, gridSide*gridSide), uncertain: map[int]bool{}}
	for len(m.points) < n {
		p := onion.Point{uint32(rng.Intn(gridSide)), uint32(rng.Intn(gridSide))}
		if m.payload[cell(p)] != 0 {
			continue
		}
		m.payload[cell(p)] = rng.Uint64() | 1
		m.points = append(m.points, p)
	}
	return m
}

func (m *model) markUncertain(p onion.Point) {
	m.mu.Lock()
	m.uncertain[cell(p)] = true
	m.mu.Unlock()
}

// system is one opened service under test: the sharded router (leading
// replica sets when replicated), its ingest pipeline, and the followers.
type system struct {
	sp        spec
	dir       string
	c         onion.Curve
	svc       *onion.ShardedEngine
	rep       *onion.ReplicatedShardedEngine
	followers []*onion.ReplFollower
	ing       *onion.IngestPipeline
	m         *model
}

// open builds the workload's service in dir over fsys and loads the
// preload set. It is the benchmark's set-up: everything until the
// window can open.
func open(ctx context.Context, sp spec, dir string, seed int64, fsys vfs.FS) (*system, error) {
	c, err := onion.NewOnion2D(gridSide)
	if err != nil {
		return nil, err
	}
	s := &system{sp: sp, dir: dir, c: c}
	eo := engine.Options{SyncWrites: true, WALRetention: -1, FlushEntries: sp.flushEntries, FS: fsys}
	opts := onion.ShardedEngineOptions{Shards: sp.shards, CacheBytes: sp.cacheBytes, Engine: eo, FS: fsys}
	if sp.replicas > 0 {
		lb := onion.NewReplLoopback()
		var peers []string
		for i := 1; i <= sp.replicas; i++ {
			id := fmt.Sprintf("f%d", i)
			fo, err := onion.OpenReplFollower(id, filepath.Join(dir, "replica-"+id), c,
				onion.ReplFollowerOptions{Engine: engine.Options{WALRetention: -1, FS: fsys}})
			if err != nil {
				s.close()
				return nil, err
			}
			s.followers = append(s.followers, fo)
			lb.Register(id, fo)
			peers = append(peers, id)
		}
		s.rep, err = onion.OpenReplicatedShardedEngine(filepath.Join(dir, "leader"), c, opts,
			func(int) onion.ReplConfig {
				return onion.ReplConfig{ID: "leader", Peers: peers, Transport: lb, HistoryEntries: historyEntries}
			})
		if err != nil {
			s.close()
			return nil, err
		}
		s.svc = s.rep.Sharded
	} else {
		s.svc, err = onion.OpenShardedEngine(filepath.Join(dir, "leader"), c, opts)
		if err != nil {
			return nil, err
		}
	}
	if s.ing, err = s.svc.NewIngest(onion.IngestConfig{}); err != nil {
		s.close()
		return nil, err
	}
	s.m = newModel(seed, sp.preload)
	if err := s.preload(ctx); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// preload writes the model's records through the ingest pipeline, waits
// for every ack, and lays the data out as the workload requires.
func (s *system) preload(ctx context.Context) error {
	hs := make([]*onion.IngestHandle, 0, len(s.m.points))
	for _, p := range s.m.points {
		h, err := s.ing.PutAsync(ctx, p, s.m.payload[cell(p)])
		if err != nil {
			return fmt.Errorf("preload: %w", err)
		}
		hs = append(hs, h)
	}
	for _, h := range hs {
		if err := h.Wait(ctx); err != nil {
			return fmt.Errorf("preload: %w", err)
		}
	}
	if s.sp.compact {
		if err := s.svc.Flush(); err != nil {
			return err
		}
		if err := s.svc.Compact(); err != nil {
			return err
		}
	}
	if s.rep != nil {
		return s.checkHistoryFull()
	}
	return nil
}

// checkHistoryFull reads the group's own counters: the window opens only
// once every preloaded entry is committed and the resend history holds
// historyEntries of them, the state a long-running replicated shard is in.
func (s *system) checkHistoryFull() error {
	snap := s.rep.TelemetrySnapshot()
	last, _ := snap.Metric("repl_last_index")
	commit, _ := snap.Metric("repl_commit_index")
	if last.Int <= historyEntries || commit.Int != last.Int {
		return fmt.Errorf("replication history not full after preload: last index %d, commit index %d, window %d",
			last.Int, commit.Int, historyEntries)
	}
	return nil
}

// close shuts the pipeline, the service and the followers down. Closing
// twice is harmless.
func (s *system) close() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if s.ing != nil {
		keep(s.ing.Close())
	}
	switch {
	case s.rep != nil:
		keep(s.rep.Close())
	case s.svc != nil:
		keep(s.svc.Close())
	}
	for _, f := range s.followers {
		keep(f.Close())
	}
	s.ing, s.rep, s.svc, s.followers = nil, nil, nil, nil
	return first
}

// diskBytes sums the sizes of every regular file under the system's
// directory: leader, followers, logs and segments alike.
func (s *system) diskBytes() int64 {
	var total int64
	filepath.WalkDir(s.dir, func(_ string, d os.DirEntry, err error) error { //nolint:errcheck
		if err != nil {
			return nil // a file compaction removed mid-walk
		}
		if d.Type().IsRegular() {
			if fi, err := d.Info(); err == nil {
				total += fi.Size()
			}
		}
		return nil
	})
	return total
}
