package learn

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"testing"
)

func testRecords(n, dim int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		feat := make([]float64, dim)
		for j := range feat {
			feat[j] = float64(i)*0.25 + float64(j)*1e-3
		}
		recs[i] = Record{Session: uint64(i % 3), Step: uint64(i), Feat: feat}
	}
	return recs
}

// bigDim is a feature width whose records (≈ 32 KiB framed) fill a
// segment in 32 appends, so a test rotates without a megabyte per
// record.
const bigDim = 4096

// encodeSegment frames recs into an in-memory segment image.
func encodeSegment(recs []Record) []byte {
	buf := []byte(segMagic)
	for _, r := range recs {
		buf = EncodeRecord(buf, r)
	}
	return buf
}

func TestEncodeReplayRoundTrip(t *testing.T) {
	recs := testRecords(7, 10)
	// Non-finite features must round-trip bit-exactly too: the log
	// stores raw float64 bits, not a lossy text form.
	recs[3].Feat[0] = math.NaN()
	recs[3].Feat[1] = math.Inf(-1)
	data := encodeSegment(recs)

	got, intact, clean := ReplaySegment(data)
	if !clean || intact != len(data) {
		t.Fatalf("clean segment replay: clean=%v intact=%d want %d", clean, intact, len(data))
	}
	if len(got) != len(recs) {
		t.Fatalf("replayed %d records, want %d", len(got), len(recs))
	}
	for i, r := range got {
		if r.Session != recs[i].Session || r.Step != recs[i].Step {
			t.Fatalf("record %d header mismatch: %+v vs %+v", i, r, recs[i])
		}
		for j := range r.Feat {
			if math.Float64bits(r.Feat[j]) != math.Float64bits(recs[i].Feat[j]) {
				t.Fatalf("record %d feat %d not bit-identical", i, j)
			}
		}
	}
	// The encoding is canonical: re-encoding the replay reproduces the
	// original bytes.
	if !bytes.Equal(encodeSegment(got), data) {
		t.Fatal("re-encoded replay differs from the original segment")
	}
}

func TestLogRotationAndRecovery(t *testing.T) {
	dir := t.TempDir()
	l, recovered, err := OpenLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 0 {
		t.Fatalf("fresh log recovered %d records, want 0", len(recovered))
	}
	// 100 wide records append past segmentBytes three times.
	recs := testRecords(100, bigDim)
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if l.Sealed() < 3 {
		t.Fatalf("%d segment rotations over %d bytes of records, want 3", l.Sealed(), 100*(recOverhead+8*bigDim))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, recovered, err := OpenLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close() //nolint:errcheck
	if len(recovered) != len(recs) {
		t.Fatalf("recovered %d records across segments, want %d", len(recovered), len(recs))
	}
	for i, r := range recovered {
		if r.Step != recs[i].Step {
			t.Fatalf("record %d out of order: step %d want %d", i, r.Step, recs[i].Step)
		}
	}
}

func TestOpenLogTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	l, _, err := OpenLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords(5, 10)
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-append: chop the last record's frame short.
	seg := filepath.Join(dir, segmentName(0))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	torn := data[:len(data)-5]
	if err := os.WriteFile(seg, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	_, wantIntact, clean := ReplaySegment(torn)
	if clean {
		t.Fatal("torn segment replayed clean")
	}

	l2, recovered, err := OpenLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close() //nolint:errcheck
	if len(recovered) != len(recs)-1 {
		t.Fatalf("recovered %d records from torn log, want %d", len(recovered), len(recs)-1)
	}
	// The torn tail must be physically gone: the file on disk is
	// exactly its intact prefix.
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != int64(wantIntact) {
		t.Fatalf("torn segment is %d bytes after recovery, want %d", fi.Size(), wantIntact)
	}
	// Recovery writes into a fresh segment, never the damaged file.
	if _, err := os.Stat(filepath.Join(dir, segmentName(1))); err != nil {
		t.Fatalf("no fresh segment after recovery: %v", err)
	}
}

func TestReplaySegmentCorruptionModes(t *testing.T) {
	base := encodeSegment(testRecords(3, 4))
	oneRec := encodeSegment(testRecords(1, 4))
	recLen := len(oneRec) - len(segMagic)

	flipCRC := append([]byte(nil), base...)
	flipCRC[len(segMagic)+recLen-1] ^= 0xFF // last byte of record 0's CRC

	badVersion := append([]byte(nil), base...)
	badVersion[len(segMagic)+4] = 99 // record 0's payload version byte
	// A version flip also breaks the CRC; rewrite it so the structural
	// check (not the checksum) is what rejects.
	fixPayloadCRC(badVersion, len(segMagic))

	badDim := append([]byte(nil), base...)
	badDim[len(segMagic)+4+17] = 200 // dim no longer matches payload length
	fixPayloadCRC(badDim, len(segMagic))

	zeroLen := append([]byte(nil), segMagic...)
	zeroLen = append(zeroLen, 0, 0, 0, 0)

	hugeLen := append([]byte(nil), segMagic...)
	hugeLen = append(hugeLen, 0xFF, 0xFF, 0xFF, 0xFF)

	cases := []struct {
		name     string
		data     []byte
		wantRecs int
	}{
		{"empty", nil, 0},
		{"wrong magic", []byte("NOTALOG!"), 0},
		{"short magic", []byte("OSAP"), 0},
		{"bare header", []byte(segMagic), 0},
		{"torn length prefix", append(encodeSegment(testRecords(2, 4)), 0x10, 0x00), 2},
		{"zero length prefix", zeroLen, 0},
		{"oversized length prefix", hugeLen, 0},
		{"torn frame", base[:len(segMagic)+recLen/2], 0},
		{"checksum mismatch", flipCRC, 0},
		{"bad payload version", badVersion, 0},
		{"dim/length mismatch", badDim, 0},
		{"corruption mid-stream", append(append([]byte(nil), base[:len(segMagic)+2*recLen]...), 0xDE, 0xAD), 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			recs, intact, clean := ReplaySegment(tc.data)
			if len(recs) != tc.wantRecs {
				t.Fatalf("replayed %d records, want %d", len(recs), tc.wantRecs)
			}
			if tc.name == "bare header" {
				if !clean || intact != len(tc.data) {
					t.Fatal("a bare header is a valid empty segment")
				}
				return
			}
			if clean {
				t.Fatal("corrupt segment reported clean")
			}
			if intact > len(tc.data) {
				t.Fatalf("intact offset %d beyond segment length %d", intact, len(tc.data))
			}
			if len(recs) > 0 && intact < len(segMagic) {
				t.Fatalf("records decoded but intact=%d < header", intact)
			}
		})
	}
}

// fixPayloadCRC recomputes the CRC of the record framed at off so a
// deliberate payload mutation is rejected structurally, not by
// checksum.
func fixPayloadCRC(seg []byte, off int) {
	n := int(binary.LittleEndian.Uint32(seg[off:]))
	crc := crc32.ChecksumIEEE(seg[off+4 : off+4+n])
	binary.LittleEndian.PutUint32(seg[off+4+n:], crc)
}

func TestCorruptionInOlderSegmentEndsPrefix(t *testing.T) {
	dir := t.TempDir()
	l, _, err := OpenLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range testRecords(80, bigDim) {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if l.Sealed() < 2 {
		t.Fatalf("want ≥ 2 sealed segments, got %d", l.Sealed())
	}

	// Corrupt the FIRST segment's first record: everything after it is
	// unreachable, and the newest segment must NOT be truncated (the
	// damage is not in the tail).
	seg0 := filepath.Join(dir, segmentName(0))
	data, err := os.ReadFile(seg0)
	if err != nil {
		t.Fatal(err)
	}
	data[len(segMagic)+6] ^= 0xA5
	if err := os.WriteFile(seg0, data, 0o644); err != nil {
		t.Fatal(err)
	}
	lastSeg := filepath.Join(dir, segmentName(l.seq))
	before, err := os.Stat(lastSeg)
	if err != nil {
		t.Fatal(err)
	}

	l2, recovered, err := OpenLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close() //nolint:errcheck
	if len(recovered) != 0 {
		t.Fatalf("recovered %d records past a corrupt head segment, want 0", len(recovered))
	}
	after, err := os.Stat(lastSeg)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() != before.Size() {
		t.Fatal("newest segment was truncated although the corruption was in an older one")
	}
}

func TestAppendRejectsOutOfRangeDim(t *testing.T) {
	dir := t.TempDir()
	l, _, err := OpenLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close() //nolint:errcheck
	if err := l.Append(Record{}); err == nil {
		t.Fatal("Append accepted an empty feature vector")
	}
	if err := l.Append(Record{Feat: make([]float64, MaxRecordLen/8)}); err == nil {
		t.Fatal("Append accepted a record larger than MaxRecordLen")
	}
}

func TestExportBootstrapRoundTrip(t *testing.T) {
	dir := t.TempDir()
	feats := [][]float64{{1, 2}, {3, 4}, {5, 6}}
	n, err := ExportBootstrap(dir, feats)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(feats) {
		t.Fatalf("exported %d records, want %d", n, len(feats))
	}
	l, recovered, err := OpenLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close() //nolint:errcheck
	if len(recovered) != len(feats) {
		t.Fatalf("recovered %d bootstrap records, want %d", len(recovered), len(feats))
	}
	for i, r := range recovered {
		if r.Session != 0 || r.Step != uint64(i) {
			t.Fatalf("bootstrap record %d mislabeled: session=%d step=%d", i, r.Session, r.Step)
		}
		for j := range r.Feat {
			if r.Feat[j] != feats[i][j] {
				t.Fatalf("bootstrap record %d feature mismatch", i)
			}
		}
	}
}

// FuzzExperienceLog throws arbitrary bytes at the replay path and, for
// inputs that decode at least the header, at full OpenLog recovery. The
// invariants: replay never panics, never reads past the input, yields a
// canonical re-encodable prefix, and recovery truncates the damaged
// file to exactly that prefix.
func FuzzExperienceLog(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(segMagic))
	f.Add([]byte("NOTALOG!garbagegarbage"))
	full := encodeSegment(testRecords(3, 4))
	f.Add(full)
	f.Add(full[:len(full)-3])
	flip := append([]byte(nil), full...)
	flip[len(flip)/2] ^= 0x40
	f.Add(flip)
	huge := append([]byte(segMagic), 0xFF, 0xFF, 0xFF, 0x7F)
	f.Add(huge)
	zero := append([]byte(segMagic), 0, 0, 0, 0)
	f.Add(zero)

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, intact, clean := ReplaySegment(data)
		if intact < 0 || intact > len(data) {
			t.Fatalf("intact offset %d outside [0, %d]", intact, len(data))
		}
		if clean && intact != len(data) {
			t.Fatalf("clean replay stopped at %d of %d bytes", intact, len(data))
		}
		if intact > 0 {
			// Canonical framing: re-encoding the replayed prefix must
			// reproduce the intact bytes exactly.
			if !bytes.Equal(encodeSegment(recs), data[:intact]) {
				t.Fatal("re-encoded replay differs from the intact prefix")
			}
		} else if len(recs) != 0 {
			t.Fatalf("%d records decoded with intact=0", len(recs))
		}

		if intact == 0 || len(data) > 1<<16 {
			return // no header, or too big to bother with disk recovery
		}
		dir := t.TempDir()
		seg := filepath.Join(dir, segmentName(0))
		if err := os.WriteFile(seg, data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, recovered, err := OpenLog(dir)
		if err != nil {
			t.Fatalf("OpenLog on fuzzed segment: %v", err)
		}
		defer l.Close() //nolint:errcheck
		if len(recovered) != len(recs) {
			t.Fatalf("recovery found %d records, replay found %d", len(recovered), len(recs))
		}
		fi, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		wantSize := int64(len(data))
		if !clean {
			wantSize = int64(intact) // torn tail physically truncated
		}
		if fi.Size() != wantSize {
			t.Fatalf("segment is %d bytes after recovery, want %d", fi.Size(), wantSize)
		}
	})
}
