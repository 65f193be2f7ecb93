package trace

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadCooked: the cooked parser must never panic, and anything it
// accepts must round-trip through WriteCooked.
func FuzzReadCooked(f *testing.F) {
	f.Add("0\t1.5\n1\t2.5\n")
	f.Add("2.5\n3.5\n")
	f.Add("# comment\n\n1.0\n")
	f.Add("1\tabc\n")
	f.Add("0\t-1\n")
	f.Add("")
	f.Add("1e309\n")
	f.Add("NaN\n")
	f.Fuzz(func(t *testing.T, input string) {
		tr, err := ReadCooked(strings.NewReader(input), "fuzz")
		if err != nil {
			return
		}
		if len(tr.Mbps) == 0 {
			t.Fatal("accepted an empty trace")
		}
		for _, v := range tr.Mbps {
			if v < 0 {
				t.Fatalf("accepted negative bandwidth %v", v)
			}
		}
		var buf bytes.Buffer
		if err := tr.WriteCooked(&buf); err != nil {
			t.Fatalf("write-back failed: %v", err)
		}
		back, err := ReadCooked(&buf, "fuzz2")
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if len(back.Mbps) != len(tr.Mbps) {
			t.Fatalf("round trip length %d != %d", len(back.Mbps), len(tr.Mbps))
		}
	})
}

// FuzzReadMahiMahi: the MahiMahi parser must never panic and must
// produce non-negative capacities for any accepted input.
func FuzzReadMahiMahi(f *testing.F) {
	f.Add("1\n2\n3\n", 0)
	f.Add("1000\n2000\n", 5)
	f.Add("5\n3\n", 0)
	f.Add("abc\n", 0)
	f.Add("", 3)
	f.Add("-7\n", 0)
	f.Add("-1\n0\n", 0)
	f.Add("99999999999999\n", 0)
	f.Fuzz(func(t *testing.T, input string, duration int) {
		if duration < 0 || duration > 10000 {
			duration = 0
		}
		tr, err := ReadMahiMahi(strings.NewReader(input), "fuzz", duration)
		if err != nil {
			return
		}
		if len(tr.Mbps) == 0 {
			t.Fatal("accepted an empty trace")
		}
		if duration > 0 && len(tr.Mbps) != duration {
			t.Fatalf("forced duration %d, got %d", duration, len(tr.Mbps))
		}
		for _, v := range tr.Mbps {
			if v < 0 {
				t.Fatalf("negative capacity %v", v)
			}
		}
	})
}
