package repl

import (
	"testing"

	"github.com/onioncurve/onion/internal/engine"
)

// TestLeadEngineWithoutSyncWrites: an engine opened with a commit hook
// but SyncWrites off still acknowledges a write only once it is durable
// on a quorum — the hook turns SyncWrites on, so every write reaches the
// group-commit rendezvous the hook's Commit gates, and the commit
// watermark advances.
func TestLeadEngineWithoutSyncWrites(t *testing.T) {
	opts := rtEngOpts()
	opts.SyncWrites = false
	lc := newLeadEngineCluster(t, 2, opts, Config{}, nil)
	if err := lc.eng.Put(rtPoint(1), 7); err != nil {
		t.Fatal(err)
	}
	// Quorum is 2 of 3, and the fast-path follower is the first peer.
	lc.fs[0].mu.Lock()
	_, held := lc.fs[0].log.at(1)
	lc.fs[0].mu.Unlock()
	if !held {
		t.Fatal("Put returned before its entry was durable on the quorum follower")
	}
	lc.g.mu.Lock()
	commit := lc.g.commit
	lc.g.mu.Unlock()
	if commit != 1 {
		t.Fatalf("commit watermark %d after one acknowledged write, want 1", commit)
	}
}

// TestHookPreBindWriteReachesFollowers: a write made through the engine
// before LeadEngine binds its hook is not replicated as an entry — the
// unbound hook drops it — but it leaves the engine non-empty, so the
// group seeds every follower with a snapshot that holds it.
func TestHookPreBindWriteReachesFollowers(t *testing.T) {
	lc := newLeadEngineCluster(t, 2, rtEngOpts(), Config{}, func(e *engine.Engine) {
		if err := e.Put(rtPoint(3), 33); err != nil {
			t.Fatal(err)
		}
	})
	lc.g.Heartbeat()
	want := stateOf(t, lc.c, lc.eng)
	if len(want) != 1 {
		t.Fatalf("leader holds %d records, want 1", len(want))
	}
	for i, f := range lc.fs {
		assertSameState(t, lc.c, want, f.Engine(), lc.ids[i])
	}
	lc.g.mu.Lock()
	histLen := len(lc.g.hist)
	lc.g.mu.Unlock()
	if histLen != 0 {
		t.Fatalf("pre-bind write left %d history entries, want 0", histLen)
	}
}
