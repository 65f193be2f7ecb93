package chaos

import (
	"fmt"
	"os"

	"osap/internal/stats"
)

// CorruptFile flips one deterministically chosen bit of the file at
// path — the minimal artifact-corruption fault (a storage bit-flip).
// It returns the byte offset and bit index flipped so tests can report
// what was damaged. The choice is a pure function of (seed, file
// size): the same seed corrupts the same bit of a given file.
func CorruptFile(path string, seed uint64) (byteOff int, bit uint, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, fmt.Errorf("chaos: corrupt %s: %w", path, err)
	}
	if len(data) == 0 {
		return 0, 0, fmt.Errorf("chaos: corrupt %s: file is empty", path)
	}
	pos := stats.Mix64(seed) % uint64(len(data)*8)
	byteOff = int(pos / 8)
	bit = uint(pos % 8)
	data[byteOff] ^= 1 << bit
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return 0, 0, fmt.Errorf("chaos: corrupt %s: %w", path, err)
	}
	return byteOff, bit, nil
}

// TruncateFile cuts the file to the given fraction of its size (e.g.
// 0.5 keeps the first half) — the torn-write / partial-download
// artifact fault.
func TruncateFile(path string, frac float64) error {
	if frac < 0 || frac >= 1 {
		return fmt.Errorf("chaos: truncate fraction %g outside [0, 1)", frac)
	}
	info, err := os.Stat(path)
	if err != nil {
		return fmt.Errorf("chaos: truncate %s: %w", path, err)
	}
	if err := os.Truncate(path, int64(float64(info.Size())*frac)); err != nil {
		return fmt.Errorf("chaos: truncate %s: %w", path, err)
	}
	return nil
}
