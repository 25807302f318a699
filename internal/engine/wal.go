// Package engine is a durable, concurrent, LSM-style spatial storage
// engine keyed by curve index — the mutable counterpart of the write-once
// pagedstore. Writes are acknowledged after landing in a CRC-framed
// write-ahead log and a curve-key-ordered memtable sharded across
// GOMAXPROCS by an internal/partition partitioner; memtables flush into
// immutable curve-ordered segment files that reuse the pagedstore page
// layout (tombstones ride in the mark bitmap); size-tiered
// background compaction merges segments and garbage-collects tombstones.
//
// A rectangle query consults the curve's range planner exactly once, then
// streams a k-way merge of the memtable and every live segment over each
// cluster range, counting seeks and pages exactly as pagedstore.Stats
// does: the paper's clustering number remains the number of positioned
// reads the query pays, now on a store that absorbs writes while serving.
package engine

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"

	"github.com/onioncurve/onion/internal/geom"
	"github.com/onioncurve/onion/internal/vfs"
)

// ErrWAL reports an unusable write-ahead log file (I/O failure — torn
// tails are not errors, they are truncated away by recovery).
var ErrWAL = errors.New("engine: write-ahead log failure")

// walOp is one logical write: a put of (Point, Payload) or a delete of
// Point, identified by curve key at replay time.
type walOp struct {
	pt      geom.Point
	payload uint64
	del     bool
}

const (
	walOpPut = byte(1)
	walOpDel = byte(2)
)

var walCRC = crc32.MakeTable(crc32.Castagnoli)

// walPayloadSize returns the frame payload length for an op: op byte,
// coords, and (for puts) the 8-byte payload.
func walPayloadSize(dims int, del bool) int {
	if del {
		return 1 + 4*dims
	}
	return 1 + 4*dims + 8
}

// wal is an append-only log of CRC-framed records:
//
//	frame := length(uint32 LE) | crc32c(uint32 LE, over payload) | payload
//	payload := op(1) | coords(4*dims) | payload(8, puts only)
//
// The caller serializes append/sync/close (the engine holds its WAL mutex
// so that log order equals sequence-number order).
type wal struct {
	f      vfs.File
	w      *bufio.Writer
	dims   int
	buf    []byte
	n      int64 // bytes appended (including buffered)
	frames int64 // ops appended; group commit diffs it per fsync
	// failed latches after any write or sync error: the log's tail is in
	// an unknown state, and frames appended after a torn region would be
	// unreachable to recovery (replay stops at the first bad frame). The
	// engine surfaces the error and refuses further appends until a flush
	// rotates in a fresh log.
	failed bool
	gc     groupState
}

// groupState is the log's group-commit rendezvous: concurrent SyncWrites
// callers publish the byte position their frame ends at, one of them
// becomes the leader and performs a single buffered flush + fsync
// covering every frame appended so far, and the rest wait for the
// durable watermark to pass their position. While a leader's fsync is in
// flight, later callers pile up behind the syncing flag, so the next
// fsync amortizes over the whole pile — one disk barrier per batch
// instead of one per write.
type groupState struct {
	mu           sync.Mutex
	wake         sync.Cond
	synced       int64 // bytes of the log durably synced
	syncedFrames int64 // frames covered by fsyncs so far (batch-size telemetry)
	syncing      bool  // a leader's flush+fsync is in flight
	err          error // sticky: a failed group sync poisons the log until rotation
}

func createWAL(fsys vfs.FS, path string, dims int) (*wal, error) {
	f, err := fsys.Create(path)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrWAL, err)
	}
	l := &wal{
		f:    f,
		w:    bufio.NewWriter(f),
		dims: dims,
		buf:  make([]byte, 8+walPayloadSize(dims, false)),
	}
	l.gc.wake.L = &l.gc.mu
	return l, nil
}

// append frames and buffers one op. Durability requires a later sync.
func (l *wal) append(op walOp) error {
	if l.failed {
		return fmt.Errorf("%w: log failed earlier; awaiting rotation", ErrWAL)
	}
	pl := walPayloadSize(l.dims, op.del)
	b := l.buf[:8+pl]
	if op.del {
		b[8] = walOpDel
	} else {
		b[8] = walOpPut
	}
	for d := 0; d < l.dims; d++ {
		binary.LittleEndian.PutUint32(b[9+4*d:], op.pt[d])
	}
	if !op.del {
		binary.LittleEndian.PutUint64(b[9+4*l.dims:], op.payload)
	}
	binary.LittleEndian.PutUint32(b[0:], uint32(pl))
	binary.LittleEndian.PutUint32(b[4:], crc32.Checksum(b[8:8+pl], walCRC))
	if _, err := l.w.Write(b); err != nil {
		l.failed = true
		return fmt.Errorf("%w: %w", ErrWAL, err)
	}
	l.n += int64(8 + pl)
	l.frames++
	return nil
}

// flushBuf pushes buffered frames into the OS. Durability additionally
// requires an fsync; group commit performs that outside the engine's WAL
// mutex so appends keep buffering while the disk syncs.
func (l *wal) flushBuf() error {
	if err := l.w.Flush(); err != nil {
		l.failed = true
		return fmt.Errorf("%w: %w", ErrWAL, err)
	}
	return nil
}

// sync flushes buffered frames and fsyncs the file: every previously
// acknowledged append is durable once sync returns.
func (l *wal) sync() error {
	if err := l.flushBuf(); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		l.failed = true
		return fmt.Errorf("%w: %w", ErrWAL, err)
	}
	return nil
}

func (l *wal) close() error {
	if err := l.sync(); err != nil {
		l.f.Close()
		return err
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("%w: %w", ErrWAL, err)
	}
	return nil
}

// replayWAL reads every intact frame of the log at path, in order. A torn
// tail — a final frame cut short by a crash, or any framing/CRC damage —
// ends the replay silently: recovery keeps exactly the longest valid
// prefix and drops the rest, so an acknowledged (synced) write is never
// lost and an unacknowledged torn write is never resurrected partially.
func replayWAL(fsys vfs.FS, path string, dims int) ([]walOp, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrWAL, err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrWAL, err)
	}
	r := bufio.NewReader(io.NewSectionReader(f, 0, fi.Size()))
	putLen := walPayloadSize(dims, false)
	delLen := walPayloadSize(dims, true)
	head := make([]byte, 8)
	body := make([]byte, putLen)
	var ops []walOp
	for {
		if _, err := io.ReadFull(r, head); err != nil {
			return ops, nil // clean EOF or torn frame header
		}
		pl := int(binary.LittleEndian.Uint32(head[0:]))
		if pl != putLen && pl != delLen {
			return ops, nil // garbage length: torn or corrupt tail
		}
		if _, err := io.ReadFull(r, body[:pl]); err != nil {
			return ops, nil // torn payload
		}
		if crc32.Checksum(body[:pl], walCRC) != binary.LittleEndian.Uint32(head[4:]) {
			return ops, nil // corrupt payload
		}
		ok := (body[0] == walOpPut && pl == putLen) || (body[0] == walOpDel && pl == delLen)
		if !ok {
			return ops, nil // op byte and length disagree
		}
		op := walOp{del: body[0] == walOpDel}
		op.pt = make(geom.Point, dims)
		for d := 0; d < dims; d++ {
			op.pt[d] = binary.LittleEndian.Uint32(body[1+4*d:])
		}
		if !op.del {
			op.payload = binary.LittleEndian.Uint64(body[1+4*dims:])
		}
		ops = append(ops, op)
	}
}
