package learn

import (
	"encoding/binary"
	"fmt"
	"math"

	"osap/internal/wal"
)

// The experience log is the durable, append-only record of every
// feature vector the trust gate admitted: a wal.Log, which owns the
// framing, segments and recovery, whose payloads are
//
//	payload := version(u8=1) session(u64 LE) step(u64 LE)
//	           dim(u16 LE) dim × float64 bits (u64 LE)
//
// A payload DecodeRecord refuses ends replay's intact prefix exactly as
// a failed checksum does.

const (
	// recVersion is the payload encoding version.
	recVersion = 1
	// recHeader is the payload's size without its features.
	recHeader = 1 + 8 + 8 + 2
)

// Record is one admitted step: the session that produced it, the
// session-local gate step index, and the U_S feature vector.
type Record struct {
	Session uint64
	Step    uint64
	Feat    []float64
}

// appendPayload appends r's payload encoding to dst. The encoding is
// canonical: DecodeRecord of it yields r bit for bit.
func appendPayload(dst []byte, r Record) []byte {
	dst = append(dst, recVersion)
	dst = binary.LittleEndian.AppendUint64(dst, r.Session)
	dst = binary.LittleEndian.AppendUint64(dst, r.Step)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(r.Feat)))
	for _, v := range r.Feat {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// DecodeRecord parses one experience-log payload. Its Feat reuses
// feat's storage when that is large enough. ok is false for a payload
// of another version, or whose dim disagrees with its length.
func DecodeRecord(p []byte, feat []float64) (rec Record, ok bool) {
	if len(p) < recHeader || p[0] != recVersion {
		return Record{}, false
	}
	dim := int(binary.LittleEndian.Uint16(p[17:]))
	if len(p) != recHeader+8*dim {
		return Record{}, false
	}
	if cap(feat) < dim {
		feat = make([]float64, dim)
	}
	feat = feat[:dim]
	for i := range feat {
		feat[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[recHeader+8*i:]))
	}
	return Record{Session: binary.LittleEndian.Uint64(p[1:]), Step: binary.LittleEndian.Uint64(p[9:]), Feat: feat}, true
}

// experienceLog writes records to a wal.Log through one reused encode
// buffer. Not safe for concurrent use; the learner's mu serializes it.
type experienceLog struct {
	*wal.Log
	buf []byte
}

// openLog opens the experience log in dir, replaying its intact records
// oldest first through fn. Every record fn sees shares one feature
// buffer, valid until fn returns.
func openLog(dir string, fn func(Record)) (*experienceLog, error) {
	var feat []float64
	log, err := wal.Open(dir, func(p []byte) bool {
		rec, ok := DecodeRecord(p, feat)
		if ok {
			feat = rec.Feat
			fn(rec)
		}
		return ok
	})
	if err != nil {
		return nil, err
	}
	return &experienceLog{Log: log}, nil
}

// append logs one record. A record with no features, or more than its
// u16 dim field can count, is refused.
func (x *experienceLog) append(r Record) error {
	if len(r.Feat) == 0 || len(r.Feat) > math.MaxUint16 {
		return fmt.Errorf("learn: record dim %d out of range", len(r.Feat))
	}
	x.buf = appendPayload(x.buf[:0], r)
	return x.Append(x.buf)
}

// ExportBootstrap writes feats into a fresh experience log in dir as
// the initial window (session 0, steps 0..n-1) — how `osap-train
// -learn-log` seeds an online learner with the exact feature matrix
// the published OC-SVM was trained on. Returns the record count.
func ExportBootstrap(dir string, feats [][]float64) (int, error) {
	x, err := openLog(dir, func(Record) {})
	if err != nil {
		return 0, err
	}
	for i, f := range feats {
		if err := x.append(Record{Step: uint64(i), Feat: f}); err != nil {
			x.Close()
			return i, err
		}
	}
	return len(feats), x.Close()
}
