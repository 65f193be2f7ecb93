package learn

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Experience log: the durable, append-only record of every feature
// vector the trust gate admitted. The format is built so that
// corruption is survivable by construction — replay never parses past
// the first damaged byte and never panics:
//
//	segment  := magic record*
//	magic    := "OSAPXP01" (8 bytes)
//	record   := len(u32 LE) payload crc(u32 LE, IEEE CRC-32 of payload)
//	payload  := version(u8=1) session(u64 LE) step(u64 LE)
//	            dim(u16 LE) dim × float64 bits (u64 LE)
//
// Segments rotate at segmentBytes and are fsynced when sealed, so at
// most the unsealed tail of the newest segment is at risk on a crash.
// Replay walks segments in name order, stops at the first record that
// fails framing or checksum validation, truncates a torn tail in
// place, and always opens a fresh segment for writing — a damaged log
// yields exactly the prefix of intact records, never an error loop.

const (
	// segMagic begins every segment file.
	segMagic = "OSAPXP01"
	// segmentBytes is the rotation threshold: a segment is sealed
	// (fsynced and closed) once its size reaches it.
	segmentBytes = 1 << 20
	// MaxRecordLen bounds a record payload; an oversized length prefix
	// is treated as corruption, not an allocation request.
	MaxRecordLen = 1 << 20
	// recVersion is the payload encoding version.
	recVersion = 1
	// recOverhead is the framed size of a record minus the feature
	// payload: len prefix (4) + version (1) + session (8) + step (8) +
	// dim (2) + crc (4).
	recOverhead = 4 + 1 + 8 + 8 + 2 + 4
)

// Record is one admitted step: the session that produced it, the
// session-local gate step index, and the U_S feature vector.
type Record struct {
	Session uint64
	Step    uint64
	Feat    []float64
}

// Log is the writer handle. Not safe for concurrent use; the learner
// goroutine owns it.
type Log struct {
	dir     string
	f       *os.File
	seq     uint64 // sequence number of the open segment
	written int    // bytes written to the open segment
	sealed  uint64 // segments sealed (rotations) this run
	buf     []byte // encode scratch
}

// EncodeRecord appends the framed encoding of rec to dst and returns
// the extended slice. The encoding is canonical: replaying it yields
// rec exactly, and re-encoding the replay reproduces the bytes.
func EncodeRecord(dst []byte, rec Record) []byte {
	n := 1 + 8 + 8 + 2 + 8*len(rec.Feat)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(n))
	payloadStart := len(dst)
	dst = append(dst, recVersion)
	dst = binary.LittleEndian.AppendUint64(dst, rec.Session)
	dst = binary.LittleEndian.AppendUint64(dst, rec.Step)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(rec.Feat)))
	for _, v := range rec.Feat {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	crc := crc32.ChecksumIEEE(dst[payloadStart:])
	return binary.LittleEndian.AppendUint32(dst, crc)
}

// decodePayload parses one CRC-validated record payload. It returns
// false if the payload is structurally invalid (wrong version, or dim
// inconsistent with the payload length).
func decodePayload(p []byte) (Record, bool) {
	if len(p) < 1+8+8+2 || p[0] != recVersion {
		return Record{}, false
	}
	sess := binary.LittleEndian.Uint64(p[1:])
	step := binary.LittleEndian.Uint64(p[9:])
	dim := int(binary.LittleEndian.Uint16(p[17:]))
	if len(p) != 1+8+8+2+8*dim {
		return Record{}, false
	}
	feat := make([]float64, dim)
	for i := range feat {
		feat[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[19+8*i:]))
	}
	return Record{Session: sess, Step: step, Feat: feat}, true
}

// ReplaySegment decodes the longest intact prefix of a segment.
// It returns the decoded records, the byte offset up to which the
// segment is intact (including the magic header), and whether the
// whole segment was consumed cleanly. It never panics on arbitrary
// input: a missing or wrong magic, a zero or oversized length prefix,
// a truncated frame, a checksum mismatch, or an inconsistent payload
// all simply end the replay at the last intact record.
func ReplaySegment(data []byte) (recs []Record, intact int, clean bool) {
	if len(data) < len(segMagic) || string(data[:len(segMagic)]) != segMagic {
		return nil, 0, false
	}
	off := len(segMagic)
	for off < len(data) {
		if len(data)-off < 4 {
			return recs, off, false // torn length prefix
		}
		n := int(binary.LittleEndian.Uint32(data[off:]))
		if n == 0 || n > MaxRecordLen {
			return recs, off, false // corrupt length prefix
		}
		if len(data)-off < 4+n+4 {
			return recs, off, false // torn frame
		}
		payload := data[off+4 : off+4+n]
		crc := binary.LittleEndian.Uint32(data[off+4+n:])
		if crc32.ChecksumIEEE(payload) != crc {
			return recs, off, false
		}
		rec, ok := decodePayload(payload)
		if !ok {
			return recs, off, false
		}
		recs = append(recs, rec)
		off += 4 + n + 4
	}
	return recs, off, true
}

// segmentName formats the file name for sequence number seq. Zero
// padding keeps lexicographic order equal to numeric order.
func segmentName(seq uint64) string { return fmt.Sprintf("seg-%08d.log", seq) }

// parseSegmentName inverts segmentName; ok is false for foreign files.
func parseSegmentName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "seg-") || !strings.HasSuffix(name, ".log") {
		return 0, false
	}
	mid := strings.TrimSuffix(strings.TrimPrefix(name, "seg-"), ".log")
	if len(mid) != 8 {
		return 0, false
	}
	var seq uint64
	for _, c := range mid {
		if c < '0' || c > '9' {
			return 0, false
		}
		seq = seq*10 + uint64(c-'0')
	}
	return seq, true
}

// OpenLog opens (creating if needed) the experience log in dir,
// replays every existing segment in order, and returns the recovered
// records oldest-first. Replay stops at the first corrupt byte: if the
// damage is in the newest segment its torn tail is truncated in place;
// damage in an older segment simply ends the recovered prefix there
// (later segments are left on disk but not replayed — the window they
// would contribute is gone, which is safe: the learner just re-fills).
// A fresh segment is always opened for writing, so recovery never
// appends into a possibly damaged file.
func OpenLog(dir string) (*Log, []Record, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("learn: open log: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("learn: open log: %w", err)
	}
	var segs []string
	maxSeq := uint64(0)
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if seq, ok := parseSegmentName(e.Name()); ok {
			segs = append(segs, e.Name())
			if seq >= maxSeq {
				maxSeq = seq + 1
			}
		}
	}
	sort.Strings(segs)
	var recs []Record
	for i, name := range segs {
		path := filepath.Join(dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			break // unreadable segment ends the intact prefix
		}
		segRecs, intact, clean := ReplaySegment(data)
		recs = append(recs, segRecs...)
		if !clean {
			if i == len(segs)-1 && intact > 0 {
				// Torn tail of the newest segment: truncate so the
				// file on disk is exactly its intact prefix.
				_ = os.Truncate(path, int64(intact))
			}
			break
		}
	}
	l := &Log{dir: dir, seq: maxSeq}
	if err := l.openSegment(); err != nil {
		return nil, nil, err
	}
	return l, recs, nil
}

func (l *Log) openSegment() error {
	path := filepath.Join(l.dir, segmentName(l.seq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("learn: open segment: %w", err)
	}
	if _, err := f.WriteString(segMagic); err != nil {
		f.Close()
		return fmt.Errorf("learn: write segment header: %w", err)
	}
	l.f = f
	l.written = len(segMagic)
	return nil
}

// Append writes one record, rotating to a new segment when the
// current one reaches segmentBytes. The sealed segment is fsynced.
func (l *Log) Append(rec Record) error {
	if len(rec.Feat) == 0 || 8*len(rec.Feat) > MaxRecordLen-recOverhead {
		return fmt.Errorf("learn: record dim %d out of range", len(rec.Feat))
	}
	l.buf = EncodeRecord(l.buf[:0], rec)
	if _, err := l.f.Write(l.buf); err != nil {
		return fmt.Errorf("learn: append: %w", err)
	}
	l.written += len(l.buf)
	if l.written >= segmentBytes {
		if err := l.seal(); err != nil {
			return err
		}
		l.seq++
		if err := l.openSegment(); err != nil {
			return err
		}
	}
	return nil
}

func (l *Log) seal() error {
	if err := l.f.Sync(); err != nil {
		l.f.Close()
		return fmt.Errorf("learn: seal segment: %w", err)
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("learn: seal segment: %w", err)
	}
	l.sealed++
	return nil
}

// Sync flushes the open segment to stable storage (a refit durability
// point — the samples a proposal was trained on are on disk before the
// proposal is published).
func (l *Log) Sync() error { return l.f.Sync() }

// Sealed returns the number of segments sealed by this handle.
func (l *Log) Sealed() uint64 { return l.sealed }

// Close seals the open segment and releases the handle.
func (l *Log) Close() error { return l.seal() }

// ExportBootstrap writes feats into a fresh experience log in dir as
// the initial window (session 0, steps 0..n-1) — how `osap-train
// -learn-log` seeds an online learner with the exact feature matrix
// the published OC-SVM was trained on. Returns the record count.
func ExportBootstrap(dir string, feats [][]float64) (int, error) {
	l, _, err := OpenLog(dir)
	if err != nil {
		return 0, err
	}
	for i, f := range feats {
		if err := l.Append(Record{Session: 0, Step: uint64(i), Feat: f}); err != nil {
			l.Close()
			return i, err
		}
	}
	if err := l.Close(); err != nil {
		return len(feats), err
	}
	return len(feats), nil
}
