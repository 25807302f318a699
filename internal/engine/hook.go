package engine

import (
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/onioncurve/onion/internal/geom"
)

// ErrQuorum reports a synchronous write that became durable locally but
// could not reach a quorum of replicas before the commit hook gave up.
// Like ErrWAL it poisons the current group-commit log: the engine
// degrades to ReadOnly (the error chain carries both sentinels) and
// writes fail fast until a guarded recovery — for a replicated engine,
// the replication layer's TryRecover once peers return — rotates the
// log.
var ErrQuorum = errors.New("engine: replication quorum lost")

// CommitHook observes the engine's durable write path — the seam a
// replication layer hangs off. The contract mirrors the WAL itself:
//
//   - Append is invoked under the engine's WAL mutex, once per batch
//     (Put and Delete are batches of one), with the batch's ops in log
//     order; op i holds sequence number first+i, so every batch occupies
//     one contiguous interval. The slice and the ops' Points alias the
//     caller's buffers and are valid only during the call; a hook that
//     retains an op must encode or clone it. Append must not block on
//     I/O or call back into the engine: it runs on the write hot path.
//     A batch whose WAL append fails midway passes only its framed
//     prefix, and the engine turns ReadOnly.
//
//   - Commit is invoked by the group-commit leader once the batch's
//     frames are flushed to the OS, with the highest sequence number the
//     commit covers, and blocks the release of that whole batch until it
//     returns. sync is the leader's local disk barrier: Commit must call
//     it exactly once and return its error if it fails. The engine with
//     no hook just calls sync. A replication hook starts shipping the
//     batch, calls sync — so the replicas' log barriers overlap the
//     local one — and returns nil once every appended op with seq <= the
//     argument is durable on a quorum, making a synchronous ack mean
//     "fsynced on a majority": one local fsync and one quorum round-trip
//     per batch. Returning an error (conventionally wrapping ErrQuorum)
//     poisons the rendezvous exactly as a failed fsync does: every
//     waiter fails, the engine turns ReadOnly, and recovery requires a
//     log rotation.
//
// Commit runs at the SyncWrites group-commit rendezvous, so installing a
// hook (Options.CommitHook) turns SyncWrites on.
type CommitHook interface {
	Append(first uint64, ops []BatchOp)
	Commit(seq uint64, sync func() error) error
}

// EncodeOp appends the WAL payload encoding of op to dst and returns the
// extended slice: op byte, 4*dims little-endian coords, and the 8-byte
// payload for puts. This is byte-identical to the payload the engine
// frames into its own log, so a replication stream built from it is
// decoded by the same rules as WAL replay.
func EncodeOp(dst []byte, op BatchOp, dims int) []byte {
	if op.Del {
		dst = append(dst, walOpDel)
	} else {
		dst = append(dst, walOpPut)
	}
	var c [4]byte
	for d := 0; d < dims; d++ {
		binary.LittleEndian.PutUint32(c[:], op.Point[d])
		dst = append(dst, c[:]...)
	}
	if !op.Del {
		var p [8]byte
		binary.LittleEndian.PutUint64(p[:], op.Payload)
		dst = append(dst, p[:]...)
	}
	return dst
}

// DecodeOp parses one EncodeOp payload — the same validation WAL replay
// applies to a frame body, minus the CRC (the transport or log carrying
// the payload guards integrity).
func DecodeOp(b []byte, dims int) (BatchOp, error) {
	var op BatchOp
	if len(b) < 1 {
		return op, fmt.Errorf("%w: empty op payload", ErrWAL)
	}
	op.Del = b[0] == walOpDel
	want := walPayloadSize(dims, op.Del)
	if (b[0] != walOpPut && b[0] != walOpDel) || len(b) != want {
		return op, fmt.Errorf("%w: malformed op payload (%d bytes, op %d)", ErrWAL, len(b), b[0])
	}
	op.Point = make(geom.Point, dims)
	for d := 0; d < dims; d++ {
		op.Point[d] = binary.LittleEndian.Uint32(b[1+4*d:])
	}
	if !op.Del {
		op.Payload = binary.LittleEndian.Uint64(b[1+4*dims:])
	}
	return op, nil
}
