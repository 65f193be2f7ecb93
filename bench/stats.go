package main

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// latencies returns the samples' latencies in microseconds.
func latencies(samples []sample) []float64 {
	us := make([]float64, len(samples))
	for i, s := range samples {
		us[i] = float64(s.lat) / 1e3
	}
	return us
}
