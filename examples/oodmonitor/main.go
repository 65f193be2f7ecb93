// Oodmonitor: a standalone out-of-distribution monitor for a throughput
// stream, built from the U_S components (windowed features + one-class
// SVM + consecutive-trigger).
//
// The monitor is fitted on Gamma(2,2) throughput. It then watches a
// stream that drifts through three phases — in-distribution, a gradual
// mean shift, and a regime change to Exponential(1) — printing the
// per-window decision and where the trigger would default.
//
// Run:
//
//	go run ./examples/oodmonitor
package main

import (
	"fmt"
	"log"

	"osap"
	"osap/internal/stats"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	rng := osap.NewRNG(2020)
	cfg := osap.StateSignalConfig{ThroughputWindow: 10, K: 5}

	// Fit on the reference distribution.
	ref := stats.Gamma{Shape: 2, Scale: 2}
	var calib []float64
	for i := 0; i < 5000; i++ {
		calib = append(calib, ref.Sample(rng))
	}
	ocfg := osap.DefaultOCSVMConfig()
	ocfg.Nu = 0.02 // keep the in-distribution false-positive rate low
	model, err := osap.TrainOCSVM(osap.BuildStateFeatures(calib, cfg), ocfg)
	if err != nil {
		return err
	}
	fmt.Printf("fitted OC-SVM: %d support vectors over %d-dim features\n\n",
		model.NumSVs(), cfg.FeatureDim())

	// The monitored stream passes the sample through as a 1-element
	// "observation".
	signal, err := osap.NewStateSignal(model, func(obs []float64) float64 { return obs[0] }, cfg)
	if err != nil {
		return err
	}
	// Overlapping windows mean one outlier sample contaminates several
	// consecutive windows, so a standalone monitor wants a longer
	// persistence requirement than the paper's in-loop l=3.
	tcfg := osap.StateTriggerConfig()
	tcfg.L = 12
	trigger := osap.NewTrigger(tcfg)

	phases := []struct {
		name string
		n    int
		dist stats.Sampler
	}{
		{"phase 1: in-distribution Gamma(2,2)", 120, ref},
		{"phase 2: mean drift (Gamma(2,2) + 3)", 120, shifted{ref, 3}},
		{"phase 3: regime change to Exponential(1)", 120, stats.Exponential{Scale: 1}},
	}

	step := 0
	firedAt := -1
	for _, ph := range phases {
		oodCount := 0
		for i := 0; i < ph.n; i++ {
			score := signal.Observe([]float64{ph.dist.Sample(rng)})
			if score > tcfg.Threshold {
				oodCount++
			}
			if trigger.Step(score) && firedAt < 0 {
				firedAt = step
			}
			step++
		}
		fmt.Printf("%-44s OOD windows: %3d/%d\n", ph.name, oodCount, ph.n)
	}
	if firedAt >= 0 {
		fmt.Printf("\ntrigger fired at stream position %d (phase %d)\n", firedAt, firedAt/120+1)
	} else {
		fmt.Println("\ntrigger never fired")
	}
	return nil
}

// shifted adds a constant to another sampler.
type shifted struct {
	base stats.Sampler
	off  float64
}

func (s shifted) Sample(r *stats.RNG) float64 { return s.base.Sample(r) + s.off }
func (s shifted) Mean() float64               { return s.base.Mean() + s.off }
func (s shifted) Variance() float64           { return s.base.Variance() }
func (s shifted) String() string              { return "shifted" }
