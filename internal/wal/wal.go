// Package wal implements the durable record streams every atomicity
// mechanism in this repository builds on: the per-core undo/redo logs, the
// SSP metadata journal (§3.3), and the software fall-back log.
//
// A stream is a fixed NVRAM region written sequentially at cache-line
// granularity through a small controller-side buffer (the paper's "log
// buffer": records are "written back to NVRAM, at cache level granularity,
// only when the log buffer is full or an explicit request is made to flush
// the buffer"). Records carry a checksum and a non-decreasing transaction
// ID, which makes truncation free: a reader scans from the region start and
// stops at the first record that fails its checksum or regresses in TID —
// everything beyond is a stale previous generation. Writers "truncate" by
// resetting their volatile append offset to zero.
package wal

import (
	"encoding/binary"
	"fmt"

	"repro/internal/engine"
	"repro/internal/memsim"
	"repro/internal/stats"
)

// HeaderBytes is the fixed record header size: checksum(4), tid(4),
// kind(1), payload length(1), padding(2), reserved(4).
const HeaderBytes = 16

// MaxPayload is the largest record payload a stream accepts.
const MaxPayload = 200

const checksumSeed = 0x53535031 // "SSP1"

// Record is one framed entry in a stream.
type Record struct {
	TID     uint32
	Kind    uint8
	Payload []byte
}

func checksum(tid uint32, kind uint8, payload []byte) uint32 {
	h := uint32(2166136261) ^ checksumSeed
	mix := func(b byte) {
		h ^= uint32(b)
		h *= 16777619
	}
	for _, b := range payload {
		mix(b)
	}
	mix(kind)
	for i := 0; i < 4; i++ {
		mix(byte(tid >> (8 * i)))
	}
	mix(byte(len(payload)))
	if h == 0 {
		h = 1
	}
	return h
}

func encodedLen(payload int) int {
	n := HeaderBytes + payload
	return (n + 7) &^ 7 // 8-byte alignment keeps records atomically framed
}

// Stream is a sequential, checksummed record log over one NVRAM region.
type Stream struct {
	mem  *memsim.Memory
	base memsim.PAddr
	cap  int
	cat  stats.WriteCat

	off     int // next append offset within the region
	lastTID uint32

	// Controller-side line buffer: bytes staged for the line currently
	// being filled. flushedThrough marks how much of the region has been
	// made durable; generation counts Resets (for Durable marks).
	pending        []byte // staged-but-unflushed bytes (suffix of stream)
	pendingStart   int    // offset of pending[0] within the region
	flushedThrough int
	generation     uint64
}

// NewStream returns an empty stream over [base, base+capacity).
func NewStream(mem *memsim.Memory, base memsim.PAddr, capacity int, cat stats.WriteCat) *Stream {
	if capacity < memsim.LineBytes {
		panic("wal: capacity below one line")
	}
	return &Stream{mem: mem, base: base, cap: capacity, cat: cat}
}

// Capacity returns the region size in bytes.
func (s *Stream) Capacity() int { return s.cap }

// Used returns the bytes appended since the last Reset (flushed or not).
func (s *Stream) Used() int { return s.off }

// Append frames and stages one record. Full lines are written to NVRAM as
// they fill; the partial tail line stays buffered until Flush. It returns
// the completion time of any line writes it performed.
func (s *Stream) Append(rec Record, at engine.Cycles) engine.Cycles {
	if len(rec.Payload) > MaxPayload {
		panic(fmt.Sprintf("wal: payload %d exceeds max", len(rec.Payload)))
	}
	if rec.TID < s.lastTID {
		panic(fmt.Sprintf("wal: TID regression %d < %d", rec.TID, s.lastTID))
	}
	n := encodedLen(len(rec.Payload))
	if s.off+n > s.cap {
		panic(fmt.Sprintf("wal: region overflow (%d used of %d); transaction too large for log", s.off, s.cap))
	}
	s.lastTID = rec.TID

	var frame [HeaderBytes + MaxPayload + 8]byte
	buf := frame[:n]
	binary.LittleEndian.PutUint32(buf[0:], checksum(rec.TID, rec.Kind, rec.Payload))
	binary.LittleEndian.PutUint32(buf[4:], rec.TID)
	buf[8] = rec.Kind
	buf[9] = byte(len(rec.Payload))
	copy(buf[HeaderBytes:], rec.Payload)

	if len(s.pending) == 0 {
		s.pendingStart = s.off
	}
	s.pending = append(s.pending, buf...)
	s.off += n
	return s.drainFullLines(at)
}

// drainFullLines writes every complete line in the pending buffer.
func (s *Stream) drainFullLines(at engine.Cycles) engine.Cycles {
	t := at
	for {
		lineStart := s.pendingStart &^ (memsim.LineBytes - 1)
		lineEnd := lineStart + memsim.LineBytes
		if s.pendingStart+len(s.pending) < lineEnd {
			return t
		}
		// The pending buffer covers this line through its end; write the
		// covered portion of the line.
		span := lineEnd - s.pendingStart
		t = s.mem.WriteBytes(s.base+memsim.PAddr(s.pendingStart), s.pending[:span], t, s.cat)
		// Move the rest to the front, so appends reuse the buffer.
		s.pending = s.pending[:copy(s.pending, s.pending[span:])]
		s.pendingStart = lineEnd
		if s.pendingStart > s.flushedThrough {
			s.flushedThrough = s.pendingStart
		}
	}
}

// Flush forces the partial tail line to NVRAM (the "explicit request" of
// §4.1.2); the tail line will be rewritten when later records extend it.
func (s *Stream) Flush(at engine.Cycles) engine.Cycles {
	t := s.drainFullLines(at)
	if len(s.pending) == 0 || s.flushedThrough >= s.pendingStart+len(s.pending) {
		return t
	}
	t = s.mem.WriteBytes(s.base+memsim.PAddr(s.pendingStart), s.pending, t, s.cat)
	s.flushedThrough = s.pendingStart + len(s.pending)
	// Keep the bytes staged: the line is partially filled and will be
	// rewritten in full when more records arrive.
	return t
}

// Reset logically truncates the stream: appends restart at offset zero,
// overwriting the previous generation. Durable truncation is unnecessary —
// scans stop at the TID regression (see the package comment).
func (s *Stream) Reset() {
	s.off = 0
	s.pending = s.pending[:0]
	s.pendingStart = 0
	s.flushedThrough = 0
	s.generation++
}

// Durable reports whether everything appended before the mark was taken
// has reached NVRAM (or was retired by a Reset/checkpoint).
func (s *Stream) Durable(m Mark) bool {
	return m.generation < s.generation || m.off <= s.flushedThrough
}

// Mark names a position in the stream for later Durable queries.
type Mark struct {
	generation uint64
	off        int
}

// LastTID returns the TID of the most recently appended record, or the TID
// floor if nothing was appended since the last Reset. Marker records that
// must never regress the stream (epoch seals) reuse it.
func (s *Stream) LastTID() uint32 { return s.lastTID }

// MarkHere returns a Mark for the stream's current end: Durable(mark)
// becomes true once everything appended so far has drained to NVRAM.
func (s *Stream) MarkHere() Mark {
	return Mark{generation: s.generation, off: s.off}
}

// SetTIDFloor raises the stream's TID monotonicity floor (used after
// recovery so new records sort after every durable one).
func (s *Stream) SetTIDFloor(tid uint32) {
	if tid > s.lastTID {
		s.lastTID = tid
	}
}

// scanWindow is how much of a region Scan reads at a time.
const scanWindow = memsim.PageBytes

// windowRead, when set (tests), is called at each window Scan reads.
var windowRead func()

// Scan reads the durable region from offset zero, returning every valid
// record up to the first checksum failure or TID regression. It reflects
// only bytes that reached NVRAM — staged bytes lost in a crash are invisible,
// exactly as they would be. It reads the region once, forward, through a
// fixed window, and no further than the record that stops it, so scanning a
// near-empty ring costs a window, not the ring's capacity.
//
// Each record's checksum and TID are checked once, as the scan reaches it.
// A valid record's payload stays in the window until the window moves past
// it, and is copied out then or at the end, so the records and their
// payloads cost one allocation each per scan of a ring that fits the
// window. Each payload is capped at its own length.
func Scan(mem *memsim.Memory, base memsim.PAddr, capacity int) []Record {
	type header struct {
		tid        uint32
		off        int32 // the payload's offset in the region
		kind, plen uint8
	}
	var win [scanWindow]byte
	winOff, winLen := 0, 0 // win[:winLen] holds region bytes [winOff, winOff+winLen)
	var hdrBuf [64]header
	hdrs := hdrBuf[:0]
	var pay []byte // the payloads of hdrs[:kept], copied out of the window
	kept := 0
	keep := func() {
		for _, h := range hdrs[kept:] {
			pay = append(pay, win[int(h.off)-winOff:][:h.plen]...)
		}
		kept = len(hdrs)
	}
	// bytesAt returns region bytes [off, off+n), n <= scanWindow, refilling
	// the window from off when it does not hold them all.
	bytesAt := func(off, n int) []byte {
		if off < winOff || off+n > winOff+winLen {
			keep()
			winOff, winLen = off, min(scanWindow, capacity-off)
			mem.Peek(base+memsim.PAddr(off), win[:winLen])
			if windowRead != nil {
				windowRead()
			}
		}
		return win[off-winOff : off-winOff+n]
	}
	var last uint32
	size := 0 // the valid records' payload bytes
	for off := 0; off+HeaderBytes <= capacity; {
		hdr := bytesAt(off, HeaderBytes)
		sum := binary.LittleEndian.Uint32(hdr[0:])
		tid := binary.LittleEndian.Uint32(hdr[4:])
		kind := hdr[8]
		plen := int(hdr[9])
		if plen > MaxPayload || off+encodedLen(plen) > capacity {
			break
		}
		if checksum(tid, kind, bytesAt(off+HeaderBytes, plen)) != sum || tid < last {
			break
		}
		last = tid
		hdrs = append(hdrs, header{tid, int32(off + HeaderBytes), kind, uint8(plen)})
		size, off = size+plen, off+encodedLen(plen)
	}
	if len(hdrs) == 0 {
		return nil
	}
	if pay == nil {
		pay = make([]byte, 0, size)
	}
	keep()
	out := make([]Record, len(hdrs))
	for i, h := range hdrs {
		n := int(h.plen)
		out[i] = Record{TID: h.tid, Kind: h.kind, Payload: pay[:n:n]}
		pay = pay[n:]
	}
	return out
}

// Merge interleaves the records of several TID-monotonic streams into one
// globally TID-ordered replay sequence; tid reads a record's TID. Runs of
// equal TID within one shard (a transaction's update batch) are consumed as
// a unit, so a batch is never split by another shard's records; across
// shards TIDs are unique by construction (one global allocator), and any tie
// is broken by shard index so the merge is deterministic. The inputs are not
// modified; when at most one shard holds records, the result is that shard's
// slice itself.
func Merge[R any](shards [][]R, tid func(*R) uint32) []R {
	total, held := 0, 0
	var only []R
	for _, s := range shards {
		total += len(s)
		if len(s) > 0 {
			held, only = held+1, s
		}
	}
	if held <= 1 {
		return only
	}
	heads := make([]int, len(shards))
	out := make([]R, 0, total)
	for {
		best := -1
		for i, s := range shards {
			if heads[i] >= len(s) {
				continue
			}
			if best < 0 || tid(&s[heads[i]]) < tid(&shards[best][heads[best]]) {
				best = i
			}
		}
		if best < 0 {
			return out
		}
		s := shards[best]
		t := tid(&s[heads[best]])
		for heads[best] < len(s) && tid(&s[heads[best]]) == t {
			out = append(out, s[heads[best]])
			heads[best]++
		}
	}
}
