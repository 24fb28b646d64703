// Package wal gives lemonaded's wearout state the durability the paper
// assumes of real hardware.
//
// The paper's security argument (§3, §6) is that device wearout
// *physically* enforces a maximum number of uses: state lives in the
// devices themselves, so power-cycling the system cannot refund consumed
// accesses. A simulator that keeps wear in process memory breaks that
// argument — restarting the daemon is exactly the "reset the counter"
// attack that motivates wearout over software counters. This package is
// the simulator's non-volatile substrate: an append-only, CRC-framed,
// fsync-on-commit write-ahead log of provision/access events plus
// periodic compacted snapshots, from which a restarted daemon recovers
// bit-identical architecture state.
//
// # Log-ahead rule
//
// DiskStore implements registry.Store: every provision and every access
// is durably appended (written, framed, fsynced) *before* it takes
// effect in memory. An access whose record cannot be made durable fails
// closed — no wearout is consumed and no key bytes are revealed. Once
// the record is durable the access is committed: a crash at any later
// point replays it on recovery, so the budget can only ever be consumed,
// never refunded. The done-callback in the Store contract holds a
// snapshot barrier open from append until the in-memory effect lands,
// which is what makes snapshots consistent with a log position.
//
// # On-disk layout
//
// A data directory holds numbered log segments and snapshots:
//
//	wal-00000001.log   frame* — segment 1 (the current segment is the
//	wal-00000002.log   highest-numbered one; lower ones are sealed)
//	snap-00000002.snap header frame, then one frame per architecture —
//	                   state at the instant segment 2 began
//
// Every frame is [len u32le][crc32(payload) u32le][payload], and no
// payload may exceed maxRecordLen: the writer refuses what recovery
// would refuse. Log records are JSON for debuggability (corrupted state
// must be diagnosable with od and jq at 3am). A snapshot (format 2) is a
// JSON header frame — format, epoch, creation time, architecture count —
// followed by one frame per architecture: a length-prefixed JSON
// metadata part (ID, seed, secret, design, counters, RNG, leveling
// tables, per-copy switch counts), then the switch wear as three
// fixed-width little-endian columns (wear as float64 bits, actuations,
// fail cycle). Only the wear is binary, because it is nearly all of a
// snapshot's bytes and nearly all of its JSON decode time; jq still
// reads the header and every metadata part. Format-1 snapshots, one JSON
// frame holding everything, are still read but never written.
//
// A snapshot with epoch E captures all effects of segments < E, so
// recovery is: load the newest snapshot (its architectures rebuilt in
// parallel, registered in snapshot order), replay segments ≥ E in
// order, truncate a torn tail on the final segment. Snapshotting
// rotates to a fresh segment first, then writes the snapshot via
// tmp-file + atomic rename, then deletes obsolete files — a crash
// between any two steps leaves a recoverable directory.
//
// # Torn tail vs corruption
//
// A crash mid-append leaves an incomplete final frame (the length field
// promises more bytes than the file holds). That is expected damage:
// recovery truncates it and the lost record is an access that never
// revealed anything (its done-callback never ran, so the HTTP response
// never left the process). A frame whose bytes are all present but whose
// CRC does not match is a different animal — bit rot or tampering — and
// recovery refuses to serve, reporting the segment, record index, and
// byte offset, because serving from silently-wrong wear state would
// break the only security property this system has.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

const (
	// frameHeader is the [len u32le][crc u32le] prefix of every frame.
	frameHeader = 8
	// maxRecordLen caps a frame payload. A corrupt length field larger
	// than this is classified as corruption, not as a torn tail — without
	// the cap, a flipped high bit in a mid-file length could swallow every
	// record after it into a bogus "torn tail" truncation.
	maxRecordLen = 16 << 20
)

// CorruptionError reports a frame whose content is provably damaged (bad
// CRC, absurd length, or a record referencing unknown state). Recovery
// fails closed on it.
type CorruptionError struct {
	File   string // file the damage is in
	Record int    // 0-based frame index within the file
	Offset int64  // byte offset of the damaged frame
	Reason string
}

func (e *CorruptionError) Error() string {
	return fmt.Sprintf("wal: %s: record %d at offset %d: %s (refusing to serve from damaged state)",
		e.File, e.Record, e.Offset, e.Reason)
}

// appendFrame appends one framed payload to buf and returns it. A
// payload over maxRecordLen is refused: scanFrames would classify its
// frame as corruption, so every frame the WAL writes must fit the cap.
func appendFrame(buf, payload []byte) ([]byte, error) {
	if len(payload) > maxRecordLen {
		return buf, fmt.Errorf("wal: %d-byte payload exceeds the %d-byte frame cap", len(payload), maxRecordLen)
	}
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	buf = append(buf, hdr[:]...)
	return append(buf, payload...), nil
}

// scanFrames walks the framed records in data, calling fn for each valid
// payload. It returns good, the byte length of the valid prefix, and
// torn, the number of trailing bytes that form an incomplete final frame
// (0 when the file ends exactly on a frame boundary). A frame that is
// fully present but fails its CRC, or that declares an impossible
// length, yields a *CorruptionError; the caller decides whether a torn
// tail is acceptable (it is only ever acceptable on the final segment).
func scanFrames(file string, data []byte, fn func(payload []byte) error) (good, torn int64, err error) {
	off := int64(0)
	size := int64(len(data))
	for rec := 0; ; rec++ {
		if size-off == 0 {
			return off, 0, nil
		}
		if size-off < frameHeader {
			return off, size - off, nil // header itself torn
		}
		n := int64(binary.LittleEndian.Uint32(data[off : off+4]))
		crc := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if n > maxRecordLen {
			return off, 0, &CorruptionError{File: file, Record: rec, Offset: off,
				Reason: fmt.Sprintf("frame length %d exceeds the %d-byte cap", n, maxRecordLen)}
		}
		if off+frameHeader+n > size {
			return off, size - off, nil // payload torn
		}
		payload := data[off+frameHeader : off+frameHeader+n]
		if got := crc32.ChecksumIEEE(payload); got != crc {
			return off, 0, &CorruptionError{File: file, Record: rec, Offset: off,
				Reason: fmt.Sprintf("CRC mismatch: frame declares %08x, payload hashes to %08x", crc, got)}
		}
		if fn != nil {
			if err := fn(payload); err != nil {
				return off, 0, err
			}
		}
		off += frameHeader + n
	}
}
