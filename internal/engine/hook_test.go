package engine

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"github.com/onioncurve/onion/internal/geom"
	"github.com/onioncurve/onion/internal/vfs"
)

// recordingHook is a CommitHook that records every call. Its Commit runs
// the local barrier and returns the barrier's error, else failCommit.
type recordingHook struct {
	mu         sync.Mutex
	appends    []hookAppend
	commits    []uint64
	commitErrs []error // what each Commit returned
	failCommit error
}

type hookAppend struct {
	first uint64
	ops   []BatchOp
}

func (h *recordingHook) Append(first uint64, ops []BatchOp) {
	h.mu.Lock()
	defer h.mu.Unlock()
	cp := make([]BatchOp, len(ops))
	for i, op := range ops {
		cp[i] = BatchOp{Point: op.Point.Clone(), Payload: op.Payload, Del: op.Del}
	}
	h.appends = append(h.appends, hookAppend{first, cp})
}

func (h *recordingHook) Commit(seq uint64, sync func() error) error {
	err := sync()
	h.mu.Lock()
	defer h.mu.Unlock()
	if err == nil {
		err = h.failCommit
	}
	h.commits = append(h.commits, seq)
	h.commitErrs = append(h.commitErrs, err)
	return err
}

// TestCommitHookContract: every write path makes exactly one Append per
// batch, with a contiguous sequence interval in log order, and one
// Commit whose seq covers it — on an engine opened without SyncWrites,
// which the hook turns on. A failing Commit, or a failing local barrier
// returned through Commit, fails the write and turns the engine
// ReadOnly.
func TestCommitHookContract(t *testing.T) {
	p := func(i int) geom.Point { return fwPoint(i) }
	batch := []BatchOp{{Point: p(1), Payload: 10}, {Point: p(2), Del: true}, {Point: p(3), Payload: 30}}
	cases := []struct {
		name       string
		write      func(e *Engine) error
		want       []BatchOp
		failCommit error
		failSync   bool
		wantErr    error
	}{
		{name: "put", write: func(e *Engine) error { return e.Put(p(1), 10) },
			want: []BatchOp{{Point: p(1), Payload: 10}}},
		{name: "delete", write: func(e *Engine) error { return e.Delete(p(1)) },
			want: []BatchOp{{Point: p(1), Del: true}}},
		{name: "batch", write: func(e *Engine) error { return e.PutBatch(batch) }, want: batch},
		{name: "commit fails", write: func(e *Engine) error { return e.Put(p(1), 10) },
			want: []BatchOp{{Point: p(1), Payload: 10}}, failCommit: fmt.Errorf("%w: no peers", ErrQuorum),
			wantErr: ErrQuorum},
		{name: "sync fails", write: func(e *Engine) error { return e.PutBatch(batch) },
			want: batch, failSync: true, wantErr: ErrWAL},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			inj := vfs.NewInjecting(vfs.OS{})
			hook := &recordingHook{}
			opts := batchManualOpts()
			opts.FS = inj
			opts.CommitHook = hook
			e, err := Open(t.TempDir(), fwCurve(t), opts)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close() //nolint:errcheck
			// A leading write makes the case's interval start past 1.
			if err := e.Put(p(0), 1); err != nil {
				t.Fatal(err)
			}
			hook.failCommit = tc.failCommit
			if tc.failSync {
				inj.SetFaults(vfs.Fault{Op: vfs.OpSync, Path: "wal-", N: 1})
			}
			err = tc.write(e)

			if len(hook.appends) != 2 {
				t.Fatalf("%d Appends for two writes, want 2", len(hook.appends))
			}
			a := hook.appends[1]
			if a.first != 2 {
				t.Fatalf("Append first = %d, want 2 (right after the leading write)", a.first)
			}
			if len(a.ops) != len(tc.want) {
				t.Fatalf("Append got %d ops, want %d", len(a.ops), len(tc.want))
			}
			for i, op := range a.ops {
				w := tc.want[i]
				if !op.Point.Equal(w.Point) || op.Payload != w.Payload || op.Del != w.Del {
					t.Fatalf("Append op %d = %+v, want %+v (log order)", i, op, w)
				}
			}
			last := a.first + uint64(len(a.ops)) - 1
			if st := e.Stats(); st.LastSeq != last {
				t.Fatalf("LastSeq = %d, want the interval's end %d", st.LastSeq, last)
			}
			if n := len(hook.commits); n != 2 || hook.commits[1] < last {
				t.Fatalf("Commits %v, want two with the second covering seq %d", hook.commits, last)
			}
			h, _ := e.Health()
			if tc.wantErr == nil {
				if err != nil || h != Healthy {
					t.Fatalf("write = %v, health %v; want nil, Healthy", err, h)
				}
				return
			}
			if !errors.Is(err, tc.wantErr) || !errors.Is(err, ErrReadOnly) {
				t.Fatalf("write = %v, want ErrReadOnly wrapping %v", err, tc.wantErr)
			}
			if cerr := hook.commitErrs[1]; !errors.Is(cerr, tc.wantErr) {
				t.Fatalf("Commit returned %v, want %v", cerr, tc.wantErr)
			}
			if tc.failSync && !errors.Is(hook.commitErrs[1], vfs.ErrInjected) {
				t.Fatalf("Commit returned %v, want the injected fsync failure", hook.commitErrs[1])
			}
			if h != ReadOnly {
				t.Fatalf("health = %v after a failed commit, want ReadOnly", h)
			}
		})
	}
}
