package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// segment frames payloads into a segment image.
func segment(payloads ...string) []byte {
	buf := []byte(Magic)
	for _, p := range payloads {
		buf = AppendFrame(buf, []byte(p))
	}
	return buf
}

// TestRefusedPayloadEndsPrefix: a payload the callback refuses ends the
// intact prefix before its frame, as a failed checksum does, and Open
// truncates the newest segment there.
func TestRefusedPayloadEndsPrefix(t *testing.T) {
	data := segment("one", "bad", "three")
	var seen []string
	refuseBad := func(p []byte) bool {
		seen = append(seen, string(p))
		return string(p) != "bad"
	}
	intact, clean := ReplaySegment(data, refuseBad)
	if want := len(segment("one")); clean || intact != want {
		t.Fatalf("replay: intact %d clean %v, want %d false", intact, clean, want)
	}
	if len(seen) != 2 {
		t.Fatalf("callback saw %q, want one and bad only", seen)
	}

	dir := t.TempDir()
	path := filepath.Join(dir, segmentName(0))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	seen = nil
	l, err := Open(dir, refuseBad)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, segment("one")) {
		t.Fatalf("segment after recovery is %q, want its prefix before the refused payload", got)
	}
}

func TestAppendRejectsPayloadSize(t *testing.T) {
	l, err := Open(t.TempDir(), func([]byte) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close() //nolint:errcheck
	for _, n := range []int{0, MaxPayload + 1} {
		if err := l.Append(make([]byte, n)); err == nil {
			t.Errorf("Append accepted a %d-byte payload", n)
		}
	}
}

// TestOpenNumbersAfterHighestSegment: Open skips files that are not
// segments and writes to a fresh segment after the highest one.
func TestOpenNumbersAfterHighestSegment(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{segmentName(3), segmentName(7), "notes.txt", "00000009.log", "seg-0000009.log", "seg-0000000x.log"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(Magic), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	l, err := Open(dir, func([]byte) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, segmentName(8)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, segment("x")) {
		t.Fatalf("fresh segment holds %q", got)
	}
}
