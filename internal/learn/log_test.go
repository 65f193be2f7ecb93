package learn

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"osap/internal/wal"
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
	buf := []byte(wal.Magic)
	for _, r := range recs {
		buf = wal.AppendFrame(buf, appendPayload(nil, r))
	}
	return buf
}

// replaySegment decodes the intact prefix of a segment image into
// records of their own.
func replaySegment(data []byte) (recs []Record, intact int, clean bool) {
	intact, clean = wal.ReplaySegment(data, func(p []byte) bool {
		rec, ok := DecodeRecord(p, nil)
		if ok {
			recs = append(recs, rec)
		}
		return ok
	})
	return recs, intact, clean
}

// readLog opens the experience log in dir and returns it with copies
// of the records its replay recovered.
func readLog(t testing.TB, dir string) (*experienceLog, []Record) {
	t.Helper()
	var recs []Record
	x, err := openLog(dir, func(r Record) {
		recs = append(recs, Record{Session: r.Session, Step: r.Step, Feat: slices.Clone(r.Feat)})
	})
	if err != nil {
		t.Fatal(err)
	}
	return x, recs
}

// segmentPath is the file of segment seq in dir.
func segmentPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("seg-%08d.log", seq))
}

// sameRecords fails unless got and want hold the same records, features
// compared bit for bit.
func sameRecords(t *testing.T, got, want []Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d records, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Session != want[i].Session || got[i].Step != want[i].Step || len(got[i].Feat) != len(want[i].Feat) {
			t.Fatalf("record %d is %d/%d/dim %d, want %d/%d/dim %d", i,
				got[i].Session, got[i].Step, len(got[i].Feat), want[i].Session, want[i].Step, len(want[i].Feat))
		}
		for j := range got[i].Feat {
			if math.Float64bits(got[i].Feat[j]) != math.Float64bits(want[i].Feat[j]) {
				t.Fatalf("record %d feat %d not bit-identical", i, j)
			}
		}
	}
}

func TestEncodeReplayRoundTrip(t *testing.T) {
	recs := testRecords(7, 10)
	// Non-finite features must round-trip bit-exactly too: the log
	// stores raw float64 bits, not a lossy text form.
	recs[3].Feat[0] = math.NaN()
	recs[3].Feat[1] = math.Inf(-1)
	data := encodeSegment(recs)

	got, intact, clean := replaySegment(data)
	if !clean || intact != len(data) {
		t.Fatalf("clean segment replay: clean=%v intact=%d want %d", clean, intact, len(data))
	}
	sameRecords(t, got, recs)
	// The encoding is canonical: re-encoding the replay reproduces the
	// original bytes.
	if !bytes.Equal(encodeSegment(got), data) {
		t.Fatal("re-encoded replay differs from the original segment")
	}
}

// parentRecords are the records of testdata/segment-v1.log, a segment
// the log's writer produced before the framing moved to internal/wal.
func parentRecords() []Record {
	recs := testRecords(7, 10)
	recs[3].Feat[0] = math.NaN()
	recs[3].Feat[1] = math.Inf(-1)
	return append(recs, Record{Session: 1 << 40, Step: math.MaxUint64, Feat: []float64{math.Copysign(0, -1), math.SmallestNonzeroFloat64, math.MaxFloat64}})
}

// TestLogBytesUnchanged: a segment written before internal/wal existed
// replays to its records, and writing those records now produces the
// same bytes.
func TestLogBytesUnchanged(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "segment-v1.log"))
	if err != nil {
		t.Fatal(err)
	}
	got, intact, clean := replaySegment(want)
	if !clean || intact != len(want) {
		t.Fatalf("committed segment replay: clean=%v intact=%d of %d", clean, intact, len(want))
	}
	sameRecords(t, got, parentRecords())

	dir := t.TempDir()
	x, _ := readLog(t, dir)
	for _, r := range got {
		if err := x.append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := x.Close(); err != nil {
		t.Fatal(err)
	}
	written, err := os.ReadFile(segmentPath(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(written, want) {
		t.Fatal("a log written from the committed segment's records differs from it")
	}
}

func TestLogRotationAndRecovery(t *testing.T) {
	dir := t.TempDir()
	x, recovered := readLog(t, dir)
	if len(recovered) != 0 {
		t.Fatalf("fresh log recovered %d records, want 0", len(recovered))
	}
	// 100 wide records append past the 1 MiB rotation size three times.
	recs := testRecords(100, bigDim)
	for _, r := range recs {
		if err := x.append(r); err != nil {
			t.Fatal(err)
		}
	}
	if x.Sealed() < 3 {
		t.Fatalf("%d segment rotations over %d bytes of records, want 3", x.Sealed(), 100*(8+recHeader+8*bigDim))
	}
	if err := x.Close(); err != nil {
		t.Fatal(err)
	}

	x2, recovered := readLog(t, dir)
	defer x2.Close() //nolint:errcheck
	sameRecords(t, recovered, recs)
}

func TestOpenLogTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	x, _ := readLog(t, dir)
	recs := testRecords(5, 10)
	for _, r := range recs {
		if err := x.append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := x.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-append: chop the last record's frame short.
	seg := segmentPath(dir, 0)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	torn := data[:len(data)-5]
	if err := os.WriteFile(seg, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	_, wantIntact, clean := replaySegment(torn)
	if clean {
		t.Fatal("torn segment replayed clean")
	}

	x2, recovered := readLog(t, dir)
	defer x2.Close() //nolint:errcheck
	sameRecords(t, recovered, recs[:len(recs)-1])
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
	if _, err := os.Stat(segmentPath(dir, 1)); err != nil {
		t.Fatalf("no fresh segment after recovery: %v", err)
	}
}

func TestReplaySegmentCorruptionModes(t *testing.T) {
	base := encodeSegment(testRecords(3, 4))
	oneRec := encodeSegment(testRecords(1, 4))
	hdr := len(wal.Magic)
	recLen := len(oneRec) - hdr

	flipCRC := append([]byte(nil), base...)
	flipCRC[hdr+recLen-1] ^= 0xFF // last byte of record 0's CRC

	badVersion := append([]byte(nil), base...)
	badVersion[hdr+4] = 99 // record 0's payload version byte
	// A version flip also breaks the CRC; rewrite it so the payload
	// check (not the checksum) is what rejects.
	fixPayloadCRC(badVersion, hdr)

	badDim := append([]byte(nil), base...)
	badDim[hdr+4+17] = 200 // dim no longer matches payload length
	fixPayloadCRC(badDim, hdr)

	zeroLen := append([]byte(nil), wal.Magic...)
	zeroLen = append(zeroLen, 0, 0, 0, 0)

	hugeLen := append([]byte(nil), wal.Magic...)
	hugeLen = append(hugeLen, 0xFF, 0xFF, 0xFF, 0xFF)

	cases := []struct {
		name       string
		data       []byte
		wantRecs   int
		wantIntact int
	}{
		{"empty", nil, 0, 0},
		{"wrong magic", []byte("NOTALOG!"), 0, 0},
		{"short magic", []byte("OSAP"), 0, 0},
		{"bare header", []byte(wal.Magic), 0, hdr},
		{"torn length prefix", append(encodeSegment(testRecords(2, 4)), 0x10, 0x00), 2, hdr + 2*recLen},
		{"zero length prefix", zeroLen, 0, hdr},
		{"oversized length prefix", hugeLen, 0, hdr},
		{"torn frame", base[:hdr+recLen/2], 0, hdr},
		{"checksum mismatch", flipCRC, 0, hdr},
		{"bad payload version", badVersion, 0, hdr},
		{"dim/length mismatch", badDim, 0, hdr},
		{"corruption mid-stream", append(append([]byte(nil), base[:hdr+2*recLen]...), 0xDE, 0xAD), 2, hdr + 2*recLen},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			recs, intact, clean := replaySegment(tc.data)
			if len(recs) != tc.wantRecs || intact != tc.wantIntact {
				t.Fatalf("replayed %d records intact to %d, want %d to %d", len(recs), intact, tc.wantRecs, tc.wantIntact)
			}
			if clean != (tc.name == "bare header") {
				t.Fatalf("clean = %v: only a bare header is a valid (empty) segment", clean)
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
	x, _ := readLog(t, dir)
	for _, r := range testRecords(80, bigDim) {
		if err := x.append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := x.Close(); err != nil {
		t.Fatal(err)
	}
	if x.Sealed() < 2 {
		t.Fatalf("want ≥ 2 sealed segments, got %d", x.Sealed())
	}

	// Corrupt the FIRST segment's first record: everything after it is
	// unreachable, and the newest segment must NOT be truncated (the
	// damage is not in the tail).
	seg0 := segmentPath(dir, 0)
	data, err := os.ReadFile(seg0)
	if err != nil {
		t.Fatal(err)
	}
	data[len(wal.Magic)+6] ^= 0xA5
	if err := os.WriteFile(seg0, data, 0o644); err != nil {
		t.Fatal(err)
	}
	lastSeg := segmentPath(dir, x.Sealed()-1)
	before, err := os.Stat(lastSeg)
	if err != nil {
		t.Fatal(err)
	}

	x2, recovered := readLog(t, dir)
	defer x2.Close() //nolint:errcheck
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
	x, _ := readLog(t, t.TempDir())
	defer x.Close() //nolint:errcheck
	if err := x.append(Record{}); err == nil {
		t.Fatal("append accepted an empty feature vector")
	}
	if err := x.append(Record{Feat: make([]float64, math.MaxUint16+1)}); err == nil {
		t.Fatal("append accepted more features than the dim field counts")
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
	x, recovered := readLog(t, dir)
	defer x.Close() //nolint:errcheck
	want := make([]Record, len(feats))
	for i, f := range feats {
		want[i] = Record{Step: uint64(i), Feat: f}
	}
	sameRecords(t, recovered, want)
}

// exportRecords writes n records of dim features into a fresh log in
// dir, record i's first feature i, and returns the segments it filled.
func exportRecords(t *testing.T, dir string, n, dim int) uint64 {
	t.Helper()
	feats := make([][]float64, n)
	flat := make([]float64, n*dim)
	for i := range feats {
		feats[i] = flat[i*dim : (i+1)*dim]
		feats[i][0] = float64(i)
	}
	if _, err := ExportBootstrap(dir, feats); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	return uint64(len(entries))
}

// recordsPerSegment is how many records of dim features fill a segment.
func recordsPerSegment(dim int) int {
	frame := 4 + recHeader + 8*dim + 4
	return (1<<20 - len(wal.Magic) + frame - 1) / frame
}

// TestReplayKeepsNewestWindow: a learner over a log of four segments
// counts every record as bootstrapped and keeps the newest windowSize
// of them, in order.
func TestReplayKeepsNewestWindow(t *testing.T) {
	arts := learnArtifacts(t, 2, 1e9, 1e9)
	dim := arts.OCSVM.Dim
	n := 3*recordsPerSegment(dim) + windowSize
	dir := t.TempDir()
	if segs := exportRecords(t, dir, n, dim); segs < 4 {
		t.Fatalf("%d records filled %d segments, want 4", n, segs)
	}
	l := newTestLearner(t, arts, func(c *Config) { c.LogDir = dir })
	defer l.Stop() //nolint:errcheck
	if got := l.Counters().BootstrapRecords.Load(); got != uint64(n) {
		t.Fatalf("BootstrapRecords = %d, want %d", got, n)
	}
	l.mu.Lock()
	snap := l.window.snapshot()
	l.mu.Unlock()
	if len(snap) != windowSize {
		t.Fatalf("window holds %d records, want %d", len(snap), windowSize)
	}
	for i, f := range snap {
		if want := float64(n - windowSize + i); f[0] != want {
			t.Fatalf("window slot %d holds record %v, want %v", i, f[0], want)
		}
	}
}

// mallocs counts the heap allocations f makes, on one P so that no
// other goroutine's are counted.
func mallocs(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestReplayAllocsPerSegment: replay decodes every record into one
// reused buffer, so a learner over a log of four segments allocates a
// few times more per extra segment than one over a single segment, not
// once per extra record.
func TestReplayAllocsPerSegment(t *testing.T) {
	arts := learnArtifacts(t, 2, 1e9, 1e9)
	dim := arts.OCSVM.Dim
	per := recordsPerSegment(dim)
	replay := func(dir string) uint64 {
		var l *Learner
		n := mallocs(func() { l = newTestLearner(t, arts, func(c *Config) { c.LogDir = dir }) })
		if err := l.Stop(); err != nil {
			t.Fatal(err)
		}
		return n
	}
	warm := t.TempDir()
	exportRecords(t, warm, 10, dim)
	replay(warm) // one-time initialization outside the comparison

	one, four := t.TempDir(), t.TempDir()
	if segs := exportRecords(t, one, per/2, dim); segs != 1 {
		t.Fatalf("one-segment log has %d segments", segs)
	}
	if segs := exportRecords(t, four, 3*per+per/2, dim); segs != 4 {
		t.Fatalf("four-segment log has %d segments", segs)
	}
	a1, a4 := replay(one), replay(four)
	t.Logf("replay allocations: %d for 1 segment of %d records, %d for 4 segments of %d", a1, per/2, a4, 3*per+per/2)
	// A segment costs its path, file handle, directory entry and read
	// buffer; 3·perSegment is far below the 3·per extra records.
	const perSegment = 20
	if a4 > a1+3*perSegment {
		t.Errorf("three more segments (%d more records) cost %d more allocations, want ≤ %d", 3*per, a4-a1, 3*perSegment)
	}
}

// FuzzExperienceLog throws arbitrary bytes at the experience log's
// replay (wal framing under the record codec) and, for inputs that
// decode at least the header, at full recovery from disk. The
// invariants: replay never panics, never reads past the input, yields a
// canonical re-encodable prefix, and recovery truncates the damaged
// file to exactly that prefix.
func FuzzExperienceLog(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(wal.Magic))
	f.Add([]byte("NOTALOG!garbagegarbage"))
	full := encodeSegment(testRecords(3, 4))
	f.Add(full)
	f.Add(full[:len(full)-3])
	flip := append([]byte(nil), full...)
	flip[len(flip)/2] ^= 0x40
	f.Add(flip)
	huge := append([]byte(wal.Magic), 0xFF, 0xFF, 0xFF, 0x7F)
	f.Add(huge)
	zero := append([]byte(wal.Magic), 0, 0, 0, 0)
	f.Add(zero)

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, intact, clean := replaySegment(data)
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
		seg := segmentPath(dir, 0)
		if err := os.WriteFile(seg, data, 0o644); err != nil {
			t.Fatal(err)
		}
		x, recovered := readLog(t, dir)
		defer x.Close() //nolint:errcheck
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
