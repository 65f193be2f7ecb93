package ocsvm

import "fmt"

// Refit trains a successor model for m on a fresh window of data — the
// online-learning entry point (DESIGN.md §14). Unless cfg.Gamma is set
// explicitly, the receiver's kernel width is reused rather than
// re-derived from the new window: autoGamma would shift the decision
// scale with every refit, and downstream comparisons (the
// poisoning-resistance reference grid, threshold carry-over) rely on
// successive generations scoring in comparable units. The receiver is
// never mutated — online adaptation must not touch a serving model in
// place.
func (m *Model) Refit(data [][]float64, cfg Config) (*Model, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("ocsvm: refit needs samples")
	}
	if len(data[0]) != m.Dim {
		return nil, fmt.Errorf("ocsvm: refit dim %d != model dim %d", len(data[0]), m.Dim)
	}
	if cfg.Gamma <= 0 {
		cfg.Gamma = m.Gamma
	}
	return Train(data, cfg)
}
