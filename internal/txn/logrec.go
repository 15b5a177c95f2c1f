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
// image. This file is that record's one codec, plus the accounting of the
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
