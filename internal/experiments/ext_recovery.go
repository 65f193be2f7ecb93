package experiments

import (
	"fmt"
	"strings"

	"osap/internal/core"
)

// recoveryVariant is one probation configuration of the U_V trigger:
// the hysteresis length l′ (0 = the paper's permanent latch) and the
// per-episode re-admission budget (-1 = unlimited).
type recoveryVariant struct {
	Name       string
	ReadmitL   int // multiples of the trigger's L; 0 disables probation
	ReadmitCap int
}

// recoveryVariants are the configurations ExtensionRecovery compares.
// l′ is expressed as a multiple of the firing requirement L so that
// re-admission always needs at least as much evidence as firing did.
func recoveryVariants(l int) []recoveryVariant {
	return []recoveryVariant{
		{Name: "Latched", ReadmitL: 0, ReadmitCap: 0}, // the paper's §2.5 behavior
		{Name: "Readmit 2L cap1", ReadmitL: 2 * l, ReadmitCap: 1},
		{Name: "Readmit 2L", ReadmitL: 2 * l, ReadmitCap: -1},
		{Name: "Readmit 4L", ReadmitL: 4 * l, ReadmitCap: -1},
	}
}

// RecoveryVariantNames lists the probation variants compared by
// ExtensionRecovery, in render order.
func RecoveryVariantNames() []string {
	var out []string
	for _, v := range recoveryVariants(1) {
		out = append(out, v.Name)
	}
	return out
}

// ExtensionRecoveryResult compares probation (hysteresis re-admission)
// variants on the U_V guard across OOD pairs: the guarded normalized
// QoE, the fraction of steps spent on the default policy, and the mean
// re-admissions per episode.
type ExtensionRecoveryResult struct {
	TrainDataset string
	Tests        []string
	// Norm[variant][test] is the guarded normalized score.
	Norm map[string]map[string]float64
	// Defaulted[variant][test] is the mean defaulted-step fraction.
	Defaulted map[string]map[string]float64
	// Readmits[variant][test] is the mean re-admissions per episode.
	Readmits map[string]map[string]float64
	// Params records each variant's calibrated variance threshold α.
	Params map[string]float64
}

// ExtensionRecovery evaluates the probation extension (DESIGN.md §13)
// offline: each variant's trigger is calibrated to ND's
// in-distribution QoE — the paper's fair-comparison rule, so the
// latched variant reproduces the U_V baseline exactly — and then run
// across the OOD test datasets. The question the table answers: how
// much QoE does hysteresis re-admission recover on distributions where
// the latch over-commits to the default policy, and what does it cost
// where the latch was right?
func (l *Lab) ExtensionRecovery(trainDS string) (*ExtensionRecoveryResult, error) {
	a, frozen, err := l.trained(trainDS)
	if err != nil {
		return nil, err
	}
	seed := l.cfg.Seed ^ hashString(trainDS) ^ 0x53C4
	res := &ExtensionRecoveryResult{
		TrainDataset: trainDS,
		Tests:        oodTests(trainDS),
		Norm:         map[string]map[string]float64{},
		Defaulted:    map[string]map[string]float64{},
		Readmits:     map[string]map[string]float64{},
		Params:       map[string]float64{},
	}
	for _, v := range recoveryVariants(a.Record.TriggerL) {
		norm, defaulted, readmits := map[string]float64{}, map[string]float64{}, map[string]float64{}
		res.Norm[v.Name], res.Defaulted[v.Name], res.Readmits[v.Name] = norm, defaulted, readmits
		build := func(alpha float64) (*core.Guard, error) {
			return NewGuard(a.withAlpha(SchemeVEns, alpha), SchemeVEns, frozen.NewScratch(), Probation{v.ReadmitL, v.ReadmitCap})
		}
		var rows map[string]episodeMeans
		if res.Params[v.Name], rows, err = l.calibratedOOD(a, seed^1, "/recov/"+v.Name, build); err != nil {
			return nil, fmt.Errorf("experiments: calibrate recovery variant %q: %w", v.Name, err)
		}
		for te, m := range rows {
			norm[te], defaulted[te], readmits[te] = m.Norm, m.Defaulted, m.Readmits
		}
	}
	return res, nil
}

// Render formats the extension as a text table: one row per variant,
// with the normalized score, defaulted fraction and mean re-admissions
// per OOD test dataset.
func (r *ExtensionRecoveryResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension: probation re-admission on the U_V guard (train = %s)\n", r.TrainDataset)
	fmt.Fprintf(&b, "%-18s%10s", "variant", "α")
	for _, te := range r.Tests {
		fmt.Fprintf(&b, "%22s", te)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "%-18s%10s", "", "")
	for range r.Tests {
		fmt.Fprintf(&b, "%22s", "norm/default/readmit")
	}
	b.WriteByte('\n')
	for _, name := range RecoveryVariantNames() {
		fmt.Fprintf(&b, "%-18s%10.3g", name, r.Params[name])
		for _, te := range r.Tests {
			fmt.Fprintf(&b, "%10.2f/%4.2f/%5.2f",
				r.Norm[name][te], r.Defaulted[name][te], r.Readmits[name][te])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
