// Package wal is an append-only log of opaque payloads, built so that
// corruption is survivable by construction: replay never parses past
// the first damaged byte and never panics.
//
//	segment := magic frame*
//	magic   := "OSAPXP01" (8 bytes)
//	frame   := len(u32 LE) payload crc(u32 LE, IEEE CRC-32 of payload)
//
// Segments rotate once they reach segmentBytes and are fsynced when
// sealed, so at most the unsealed tail of the newest segment is at
// risk on a crash. Replay walks segments in name order, one at a time,
// and hands each payload to a callback; it stops at the first frame
// that fails framing or checksum validation, or whose payload the
// callback refuses. A torn tail of the newest segment is truncated in
// place, and writing always opens a fresh segment, so a damaged log
// yields exactly its prefix of intact payloads, never an error loop.
//
//osap:deterministic
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

const (
	// Magic begins every segment file.
	Magic = "OSAPXP01"
	// segmentBytes is the rotation threshold: a segment is sealed
	// (fsynced and closed) once its size reaches it.
	segmentBytes = 1 << 20
	// MaxPayload bounds a payload; a larger length prefix is
	// corruption, not an allocation request.
	MaxPayload = 1 << 20
)

// AppendFrame appends payload, framed as len | payload | crc, to dst
// and returns the extended slice.
func AppendFrame(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = append(dst, payload...)
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
}

// ReplaySegment hands fn each payload of the longest intact prefix of
// a segment image, in order; a payload aliases data. It returns the
// byte offset up to which the segment is intact (including the magic)
// and whether the whole image was consumed. A missing or wrong magic, a
// zero or oversized length prefix, a truncated frame, a checksum
// mismatch, or a payload fn refuses all end the prefix before that
// frame.
func ReplaySegment(data []byte, fn func(payload []byte) bool) (intact int, clean bool) {
	if len(data) < len(Magic) || string(data[:len(Magic)]) != Magic {
		return 0, false
	}
	off := len(Magic)
	for off < len(data) {
		if len(data)-off < 4 {
			return off, false // torn length prefix
		}
		n := int(binary.LittleEndian.Uint32(data[off:]))
		if n == 0 || n > MaxPayload || len(data)-off < 4+n+4 {
			return off, false // corrupt length prefix, or torn frame
		}
		payload := data[off+4 : off+4+n]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(data[off+4+n:]) || !fn(payload) {
			return off, false
		}
		off += 4 + n + 4
	}
	return off, true
}

// segmentName formats the file name for sequence number seq. Zero
// padding keeps lexicographic order equal to numeric order.
func segmentName(seq uint64) string { return fmt.Sprintf("seg-%08d.log", seq) }

// Log is the writer handle. Not safe for concurrent use.
type Log struct {
	dir     string
	f       *os.File
	seq     uint64 // sequence number of the open segment
	written int    // bytes written to the open segment
	sealed  uint64 // segments sealed (rotations) by this handle
	buf     []byte // frame scratch
}

// Open opens (creating if needed) the log in dir, replays it through
// fn one segment at a time, and opens a fresh segment for writing. A
// bad frame or refused payload in the newest segment truncates its torn
// tail; in an older one it ends the prefix, later segments left unread.
func Open(dir string, fn func(payload []byte) bool) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: open: %w", err)
	}
	entries, err := os.ReadDir(dir) // sorted by name
	if err != nil {
		return nil, fmt.Errorf("wal: open: %w", err)
	}
	var segs []string
	next := uint64(0)
	for _, e := range entries {
		// A segment is a file named exactly segmentName(seq).
		seq, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(e.Name(), "seg-"), ".log"), 10, 64)
		if err == nil && e.Name() == segmentName(seq) && !e.IsDir() {
			segs = append(segs, e.Name())
			next = seq + 1
		}
	}
	for i, name := range segs {
		path := filepath.Join(dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			break // an unreadable segment ends the intact prefix
		}
		if intact, clean := ReplaySegment(data, fn); !clean {
			if i == len(segs)-1 && intact > 0 {
				// Torn tail of the newest segment: truncate so the
				// file on disk is exactly its intact prefix.
				_ = os.Truncate(path, int64(intact))
			}
			break
		}
	}
	l := &Log{dir: dir, seq: next}
	if err := l.openSegment(); err != nil {
		return nil, err
	}
	return l, nil
}

func (l *Log) openSegment() error {
	path := filepath.Join(l.dir, segmentName(l.seq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: open segment: %w", err)
	}
	if _, err := f.WriteString(Magic); err != nil {
		f.Close()
		return fmt.Errorf("wal: write segment header: %w", err)
	}
	l.f = f
	l.written = len(Magic)
	return nil
}

// Append writes one framed payload, rotating to a new segment once the
// current one reaches segmentBytes. The sealed segment is fsynced.
func (l *Log) Append(payload []byte) error {
	if len(payload) == 0 || len(payload) > MaxPayload {
		return fmt.Errorf("wal: payload of %d bytes out of range", len(payload))
	}
	l.buf = AppendFrame(l.buf[:0], payload)
	if _, err := l.f.Write(l.buf); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	l.written += len(l.buf)
	if l.written < segmentBytes {
		return nil
	}
	if err := l.seal(); err != nil {
		return err
	}
	l.seq++
	return l.openSegment()
}

func (l *Log) seal() error {
	if err := l.f.Sync(); err != nil {
		l.f.Close()
		return fmt.Errorf("wal: seal segment: %w", err)
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: seal segment: %w", err)
	}
	l.sealed++
	return nil
}

// Sync flushes the open segment to stable storage.
func (l *Log) Sync() error { return l.f.Sync() }

// Sealed returns the number of segments sealed by this handle.
func (l *Log) Sealed() uint64 { return l.sealed }

// Close seals the open segment and releases the handle.
func (l *Log) Close() error { return l.seal() }
