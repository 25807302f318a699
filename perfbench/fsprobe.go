package main

import (
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"github.com/onioncurve/onion/internal/vfs"
)

// fileClass groups files by the role they play in the storage stack.
type fileClass int

const (
	classWAL fileClass = iota
	classSegment
	classManifest
	classOther
	numClasses
)

var classNames = [numClasses]string{"wal", "segment", "manifest", "other"}

// classify maps a storage-stack file name to its class. The follower
// replication log is written with the os package directly, not through
// the engine's filesystem, so it never reaches the probe.
func classify(name string) fileClass {
	base := filepath.Base(name)
	switch {
	case strings.HasPrefix(base, "wal-"):
		return classWAL
	case strings.Contains(base, ".pst"):
		return classSegment
	case strings.HasPrefix(base, "MANIFEST"), strings.HasPrefix(base, "SNAPSHOT"):
		return classManifest
	}
	return classOther
}

// ioCounters counts and times the data calls of one file class.
type ioCounters struct {
	reads, readBytes, readNS    atomic.Int64
	writes, writeBytes, writeNS atomic.Int64
	syncs, syncNS               atomic.Int64
}

// ioTotals is a plain copy of ioCounters, for deltas between two points.
type ioTotals struct {
	Reads, ReadBytes, ReadNS    int64
	Writes, WriteBytes, WriteNS int64
	Syncs, SyncNS               int64
}

func (c *ioCounters) load() ioTotals {
	return ioTotals{c.reads.Load(), c.readBytes.Load(), c.readNS.Load(),
		c.writes.Load(), c.writeBytes.Load(), c.writeNS.Load(),
		c.syncs.Load(), c.syncNS.Load()}
}

func (a ioTotals) sub(b ioTotals) ioTotals {
	return ioTotals{a.Reads - b.Reads, a.ReadBytes - b.ReadBytes, a.ReadNS - b.ReadNS,
		a.Writes - b.Writes, a.WriteBytes - b.WriteBytes, a.WriteNS - b.WriteNS,
		a.Syncs - b.Syncs, a.SyncNS - b.SyncNS}
}

func (a ioTotals) add(b ioTotals) ioTotals {
	return ioTotals{a.Reads + b.Reads, a.ReadBytes + b.ReadBytes, a.ReadNS + b.ReadNS,
		a.Writes + b.Writes, a.WriteBytes + b.WriteBytes, a.WriteNS + b.WriteNS,
		a.Syncs + b.Syncs, a.SyncNS + b.SyncNS}
}

// probeFS is the device-layer probe: a vfs.FS that forwards every call
// to an inner filesystem and counts and times ReadAt, Write and Sync per
// file class. Directory fsyncs count as manifest-class syncs, since they
// commit renames and creates rather than data.
type probeFS struct {
	inner vfs.FS
	c     [numClasses]ioCounters
}

// linkingProbeFS is a probeFS over a filesystem that can hardlink: it
// forwards Link, so snapshot export takes the same copy-free path with
// the probe as without it.
type linkingProbeFS struct {
	*probeFS
	link vfs.Linker
}

func (p linkingProbeFS) Link(oldname, newname string) error { return p.link.Link(oldname, newname) }

// newProbe wraps inner. The returned filesystem implements vfs.Linker
// exactly when inner does.
func newProbe(inner vfs.FS) (vfs.FS, *probeFS) {
	p := &probeFS{inner: inner}
	if l, ok := inner.(vfs.Linker); ok {
		return linkingProbeFS{probeFS: p, link: l}, p
	}
	return p, p
}

// totals returns the per-class counters.
func (p *probeFS) totals() [numClasses]ioTotals {
	var out [numClasses]ioTotals
	for i := range p.c {
		out[i] = p.c[i].load()
	}
	return out
}

func (p *probeFS) wrap(name string, f vfs.File, err error) (vfs.File, error) {
	if err != nil {
		return nil, err
	}
	return &probeFile{File: f, c: &p.c[classify(name)]}, nil
}

func (p *probeFS) Open(name string) (vfs.File, error) {
	f, err := p.inner.Open(name)
	return p.wrap(name, f, err)
}

func (p *probeFS) Create(name string) (vfs.File, error) {
	f, err := p.inner.Create(name)
	return p.wrap(name, f, err)
}

func (p *probeFS) Rename(oldname, newname string) error { return p.inner.Rename(oldname, newname) }
func (p *probeFS) Remove(name string) error             { return p.inner.Remove(name) }
func (p *probeFS) ReadDir(name string) ([]os.DirEntry, error) {
	return p.inner.ReadDir(name)
}
func (p *probeFS) MkdirAll(name string, perm os.FileMode) error {
	return p.inner.MkdirAll(name, perm)
}

func (p *probeFS) SyncDir(name string) error {
	start := time.Now()
	err := p.inner.SyncDir(name)
	c := &p.c[classManifest]
	c.syncs.Add(1)
	c.syncNS.Add(time.Since(start).Nanoseconds())
	return err
}

// probeFile counts one open file's data calls into its class.
type probeFile struct {
	vfs.File
	c *ioCounters
}

func (f *probeFile) ReadAt(b []byte, off int64) (int, error) {
	start := time.Now()
	n, err := f.File.ReadAt(b, off)
	f.c.readNS.Add(time.Since(start).Nanoseconds())
	f.c.reads.Add(1)
	f.c.readBytes.Add(int64(n))
	return n, err
}

func (f *probeFile) Write(b []byte) (int, error) {
	start := time.Now()
	n, err := f.File.Write(b)
	f.c.writeNS.Add(time.Since(start).Nanoseconds())
	f.c.writes.Add(1)
	f.c.writeBytes.Add(int64(n))
	return n, err
}

func (f *probeFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	f.c.syncNS.Add(time.Since(start).Nanoseconds())
	f.c.syncs.Add(1)
	return err
}
