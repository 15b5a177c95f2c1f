package txn

import (
	"encoding/binary"
	"fmt"

	"repro/internal/memsim"
	"repro/internal/stats"
	"repro/internal/wal"
)

// The per-core logs of UNDO-LOG, REDO-LOG and SSP's software fall-back path
// carry one kind of data record: a line's NVRAM address and its 64-byte
// image. This file is that record's one codec, the one reader recovery
// reads those logs through, the one rollback loop, and the accounting of the
// header-only commit record that closes each of those logs.

// LineRecordBytes is a line record's payload: the address (8 B) and the
// line image.
const LineRecordBytes = 8 + memsim.LineBytes

// EncodeLine frames (pa, line) as a line record's payload in dst and returns
// it; wal.Stream.Append copies it, so dst can live on the caller's stack.
func EncodeLine(dst *[LineRecordBytes]byte, pa memsim.PAddr, line []byte) []byte {
	binary.LittleEndian.PutUint64(dst[:], uint64(pa))
	copy(dst[8:], line)
	return dst[:]
}

// LineRecord is one decoded line record: Line is the image to write at PA.
type LineRecord struct {
	PA   memsim.PAddr
	Line []byte
}

// DecodeLines decodes every record of the given kind in recs, in order. A
// payload that is not LineRecordBytes long, or that names anything but a
// line of the data frame pool [FramePoolBase, FramePoolEnd), is an error:
// recovery decodes its logs before it writes any line back, so a corrupt
// record fails the restore instead of writing metadata or panicking.
func (e *Env) DecodeLines(recs []wal.Record, kind uint8) ([]LineRecord, error) {
	var out []LineRecord
	for _, r := range recs {
		if r.Kind != kind {
			continue
		}
		if len(r.Payload) != LineRecordBytes {
			return nil, fmt.Errorf("txn: line record payload is %d bytes, want %d", len(r.Payload), LineRecordBytes)
		}
		pa := memsim.PAddr(binary.LittleEndian.Uint64(r.Payload))
		if pa%memsim.LineBytes != 0 || pa < e.Layout.FramePoolBase || pa >= e.Layout.FramePoolEnd {
			return nil, fmt.Errorf("txn: line record names %#x, not a line of the frame pool [%#x, %#x)",
				pa, e.Layout.FramePoolBase, e.Layout.FramePoolEnd)
		}
		out = append(out, LineRecord{PA: pa, Line: r.Payload[8:]})
	}
	return out, nil
}

// Log is one core's log as recovery reads it.
type Log struct {
	Lines     []LineRecord // the data records' lines, in append order
	Records   int          // records scanned; 0 for an empty log
	TID       uint32       // the last record's TID, the log's highest
	Committed bool         // the last record is the commit record
}

// Interrupted reports whether the log holds a transaction that never wrote
// its commit record.
func (l Log) Interrupted() bool { return l.Records > 0 && !l.Committed }

// ReadLogs scans every core's log region once and decodes its records of
// kind data through DecodeLines; commit is the kind of the record that
// closes a log. It returns the logs in core order and the highest TID among
// them. Every log is decoded before the caller writes any line back, so a
// corrupt record fails recovery before it changes NVRAM.
func (e *Env) ReadLogs(data, commit uint8) ([]Log, uint32, error) {
	logs := make([]Log, e.Cores())
	var maxTID uint32
	for c := range logs {
		recs := wal.Scan(e.Mem, e.Layout.LogBase[c], e.Layout.Cfg.LogBytes)
		lines, err := e.DecodeLines(recs, data)
		if err != nil {
			return nil, 0, err
		}
		logs[c] = Log{Lines: lines, Records: len(recs)}
		if n := len(recs); n > 0 {
			logs[c].TID, logs[c].Committed = recs[n-1].TID, recs[n-1].Kind == commit
			maxTID = max(maxTID, recs[n-1].TID)
		}
	}
	return logs, maxTID, nil
}

// Rollback writes an undo log's line images back in reverse append order,
// so the oldest image of a line logged twice lands last, and counts each
// write as recovery's.
func (e *Env) Rollback(l Log) {
	for i := len(l.Lines) - 1; i >= 0; i-- {
		e.Mem.WriteLine(l.Lines[i].PA, l.Lines[i].Line, 0, stats.CatRecovery)
		e.Stats.RecoveryNVWrites++
	}
}

// ChargeCommitRecord moves one record header's bytes from the log's
// category logCat to CatCommitRecord: the commit record is a header alone,
// written through the log's stream. The move is made on the shared counter
// set, where it nets out in the aggregate; a core's own shard never held
// the log's bytes (the memory channels charge them), so the move would wrap
// it below zero.
func (e *Env) ChargeCommitRecord(logCat stats.WriteCat) {
	e.Stats.NVRAMWriteBytes[stats.CatCommitRecord] += wal.HeaderBytes
	e.Stats.NVRAMWriteBytes[logCat] -= wal.HeaderBytes
}
