package txn

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/engine"
	"repro/internal/memsim"
	"repro/internal/stats"
	"repro/internal/wal"
)

// UNDO-LOG, REDO-LOG and SSP's software fall-back path keep one per-core
// log, and this file is all of it: the record format, the writer (Logs),
// the reader recovery reads the logs through (Logs.Read), the rollback loop
// and the TID floor recovery leaves behind. A log holds one transaction at a
// time: line records, each a line's NVRAM address and a 64-byte image (the
// line's pre-image for undo logging, its final image for REDO-LOG), closed
// by a header-only commit record, after which the writer truncates the
// ring. The designs keep only their policy: when a TID is drawn, which
// image a record carries and what a commit persists before its record.

// The per-core log's two record kinds, one pair for every design.
const (
	KindLine   = 1 // payload: a line record
	kindCommit = 2 // empty payload
)

// LineRecordBytes is a line record's payload: the address (8 B) and the
// line image.
const LineRecordBytes = 8 + memsim.LineBytes

// encodeLine frames (pa, line) as a line record's payload in dst and returns
// it; wal.Stream.Append copies it, so dst can live on the caller's stack.
func encodeLine(dst *[LineRecordBytes]byte, pa memsim.PAddr, line []byte) []byte {
	binary.LittleEndian.PutUint64(dst[:], uint64(pa))
	copy(dst[8:], line)
	return dst[:]
}

// WriteSet is one core's write set: the lines its open transaction stored
// to, in ascending address order, each with a value (undo logging: the
// line's pre-transaction image; REDO-LOG: none). Commit and abort walk it
// in that order, so their simulated work does not depend on host state. A
// lookup is a binary search and a reset keeps the capacity, so a warm write
// set allocates nothing, across transactions and crashes alike.
type WriteSet[V any] struct {
	Lines []memsim.PAddr
	Vals  []V
}

// Find returns la's position, or the position it would be inserted at, and
// whether it is present.
func (w *WriteSet[V]) Find(la memsim.PAddr) (int, bool) { return slices.BinarySearch(w.Lines, la) }

// writeSetMin is the room a write set's first insert makes: more lines
// than most transactions write, so a fresh machine's first transactions do
// not grow it line by line.
const writeSetMin = 8

// Insert adds la with value v at position i, as returned by Find.
func (w *WriteSet[V]) Insert(i int, la memsim.PAddr, v V) {
	if len(w.Lines) == cap(w.Lines) {
		w.Lines = slices.Grow(w.Lines, max(writeSetMin, len(w.Lines)))
		w.Vals = slices.Grow(w.Vals, max(writeSetMin, len(w.Vals)))
	}
	w.Lines = slices.Insert(w.Lines, i, la)
	w.Vals = slices.Insert(w.Vals, i, v)
}

func (w *WriteSet[V]) reset() { w.Lines, w.Vals = w.Lines[:0], w.Vals[:0] }

// Logs writes the per-core logs: each core's ring (a wal.Stream over
// Layout.LogBase[c], its bytes charged to the category it was built with),
// the TID of the core's open transaction and its write set, whose values
// are of type V.
type Logs[V any] struct {
	env     *Env
	cat     stats.WriteCat
	streams []*wal.Stream
	tids    []uint32
	sets    []WriteSet[V]
}

// NewLogs returns the writer of env's per-core logs, charging their bytes
// to cat.
func NewLogs[V any](env *Env, cat stats.WriteCat) *Logs[V] {
	n := env.Cores()
	l := &Logs[V]{env: env, cat: cat, tids: make([]uint32, n), sets: make([]WriteSet[V], n)}
	for c := range n {
		l.streams = append(l.streams, wal.NewStream(env.Mem, env.Layout.LogBase[c], env.Layout.Cfg.LogBytes, cat))
	}
	return l
}

// Open names tid as the TID of every record core's log takes until its
// transaction ends.
func (l *Logs[V]) Open(core int, tid uint32) { l.tids[core] = tid }

// Set returns core's write set.
func (l *Logs[V]) Set(core int) *WriteSet[V] { return &l.sets[core] }

// Append stages a line record of (la, line) in core's log and returns the
// completion time of any log lines it wrote.
func (l *Logs[V]) Append(core int, la memsim.PAddr, line []byte, at engine.Cycles) engine.Cycles {
	var p [LineRecordBytes]byte
	return l.streams[core].Append(wal.Record{TID: l.tids[core], Kind: KindLine, Payload: encodeLine(&p, la, line)}, at)
}

// LogUndo is undo logging's step at a transaction's first store to la: it
// adds la with value v to core's write set at position i, as returned by
// Find, and persists img, la's pre-image, as a line record before it
// returns — the store blocks on the log write — counting the record in
// UndoRecords.
func (l *Logs[V]) LogUndo(core, i int, la memsim.PAddr, v V, img []byte, at engine.Cycles) engine.Cycles {
	l.sets[core].Insert(i, la, v)
	t := l.Append(core, la, img, at)
	t = l.streams[core].Flush(t)
	l.env.StatsFor(core).UndoRecords++
	return t
}

// Commit closes core's transaction: it appends the commit record, flushes
// the log — the commit point — and truncates the log and the write set.
//
// The commit record is a header alone, written through the log's stream:
// its bytes move from the log's category to CatCommitRecord. The memory
// channels charge the log's bytes to the shared counter set, so the move is
// made there.
func (l *Logs[V]) Commit(core int, at engine.Cycles) engine.Cycles {
	s := l.streams[core]
	t := s.Append(wal.Record{TID: l.tids[core], Kind: kindCommit}, at)
	t = s.Flush(t)
	l.env.Stats.NVRAMWriteBytes[stats.CatCommitRecord] += wal.HeaderBytes
	l.env.Stats.NVRAMWriteBytes[l.cat] -= wal.HeaderBytes
	l.Truncate(core)
	return t
}

// Truncate ends core's transaction without a commit record (an abort, a
// power failure): the log restarts at its first byte and the write set
// empties. Like Commit's, the truncation is volatile: a scan stops at the
// old records' lower TIDs.
func (l *Logs[V]) Truncate(core int) {
	l.streams[core].Reset()
	l.sets[core].reset()
}

// Resume readies the logs after recovery: each is truncated and its TID
// floor raised to maxTID, the highest TID recovery found, so every record
// appended later sorts after every durable one.
func (l *Logs[V]) Resume(maxTID uint32) {
	for c, s := range l.streams {
		l.Truncate(c)
		s.SetTIDFloor(maxTID)
	}
}

// LineRecord is one decoded line record: Line is the image to write at PA.
type LineRecord struct {
	PA   memsim.PAddr
	Line []byte
}

// Log is one core's log as recovery reads it.
type Log struct {
	Lines     []LineRecord // the line records, in append order
	Records   int          // records scanned; 0 for an empty log
	TID       uint32       // the last record's TID, the log's highest
	Committed bool         // the last record is the commit record
}

// Interrupted reports whether the log holds a transaction that never wrote
// its commit record.
func (l Log) Interrupted() bool { return l.Records > 0 && !l.Committed }

// Read scans every core's log region once and decodes its line records. It
// returns the logs in core order and the highest TID among them. A line
// record whose payload is not LineRecordBytes long, or that names anything
// but a line of the data frame pool [FramePoolBase, FramePoolEnd), is an
// error; every log is decoded before the caller writes any line back, so a
// corrupt record fails recovery before it changes NVRAM, instead of writing
// metadata or panicking.
func (l *Logs[V]) Read() ([]Log, uint32, error) {
	lay := &l.env.Layout
	logs := make([]Log, len(l.streams))
	var maxTID uint32
	for c := range logs {
		recs := wal.Scan(l.env.Mem, lay.LogBase[c], lay.Cfg.LogBytes)
		var lines []LineRecord
		for _, r := range recs {
			if r.Kind != KindLine {
				continue
			}
			if len(r.Payload) != LineRecordBytes {
				return nil, 0, fmt.Errorf("txn: line record payload is %d bytes, want %d", len(r.Payload), LineRecordBytes)
			}
			pa := memsim.PAddr(binary.LittleEndian.Uint64(r.Payload))
			if pa%memsim.LineBytes != 0 || pa < lay.FramePoolBase || pa >= lay.FramePoolEnd {
				return nil, 0, fmt.Errorf("txn: line record names %#x, not a line of the frame pool [%#x, %#x)",
					pa, lay.FramePoolBase, lay.FramePoolEnd)
			}
			lines = append(lines, LineRecord{PA: pa, Line: r.Payload[8:]})
		}
		logs[c] = Log{Lines: lines, Records: len(recs)}
		if n := len(recs); n > 0 {
			logs[c].TID, logs[c].Committed = recs[n-1].TID, recs[n-1].Kind == kindCommit
			maxTID = max(maxTID, recs[n-1].TID)
		}
	}
	return logs, maxTID, nil
}

// Rollback writes an undo log's line images back in reverse append order,
// so the oldest image of a line logged twice lands last, and counts each
// write as recovery's.
func (l *Logs[V]) Rollback(log Log) {
	for i := len(log.Lines) - 1; i >= 0; i-- {
		l.env.Mem.WriteLine(log.Lines[i].PA, log.Lines[i].Line, 0, stats.CatRecovery)
		l.env.Stats.RecoveryNVWrites++
	}
}
