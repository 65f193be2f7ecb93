package chaos

// Expectation is the closed-form outcome of a clean selftest run of n
// clients over a Schedule, derived by replaying the session state
// machine (DESIGN.md §13) over the first n created sessions' plans.
type Expectation struct {
	// Steps is the number of decisions the fleet serves: each client
	// steps to its abort point or the full budget.
	Steps int64
	// FirstDemotions counts sessions that demote at least once
	// (= the osap_sessions_demoted_total counter).
	FirstDemotions int
	// Demotions counts demotion events, first and repeat.
	Demotions int
	// Redemotions counts demotions of previously demoted sessions.
	Redemotions int
	// Recoveries counts probation re-admissions.
	Recoveries int
	// Latched counts demotions that became permanent: fault latches,
	// uncertainty demotions with probation off or the cap spent, and
	// panics escalating an open probation.
	Latched int
	// Panics counts injected panics reaching the panic-containment
	// path; NonFinite counts demotions caused by a non-finite score.
	Panics    int
	NonFinite int
	// EndDemoted counts sessions still demoted when the run ends;
	// EndProbation is the subset still recoverable (mid-probation).
	EndDemoted   int
	EndProbation int
	// DemotedSteps is the total number of steps answered in degraded
	// mode across the fleet. It is exact only when no client aborts:
	// an aborting client cuts short whichever session it happened to
	// draw, and the draw is not scheduled.
	DemotedSteps int64
}

// replayMode is the replay's view of a session's mode: the two latches
// are one state here, since a run never resets a session.
type replayMode uint8

const (
	replayLive replayMode = iota
	replayProbation
	replayLatched
)

// sessionOutcome is one session's replay tally.
type sessionOutcome struct {
	demotions, redemotions, recoveries, latches int
	panics, nonFinite                           int
	end                                         replayMode
	demotedSteps                                int
}

// replay runs the session state machine (Session.settleLocked) over
// one session's faults for the step budget: a panic latches; a
// non-finite score demotes a live session into probation, or latches
// it when probation is off or the re-admission budget is spent; in
// probation a confident step advances the streak and the ReadmitL-th
// re-admits, a non-finite one restarts it. Between faults the wrapped
// signal is confident, and a latched session's guard — and so its
// plan — is no longer consulted. visit, when non-nil, receives every
// step's demoted flag in order: the exact flag the server must report
// for that (session, step).
func (s *Schedule) replay(faults []Fault, visit func(step int, demoted bool)) sessionOutcome {
	l, budget := s.readmitL, s.readmitCap
	var o sessionOutcome
	mode := replayLive
	calm, readmits, next := 0, 0, 0
	for step := 0; step < s.steps; step++ {
		kind := None
		if mode != replayLatched && next < len(faults) && step >= faults[next].Step {
			kind = faults[next].Kind
			next++
		}
		from := mode
		switch {
		case mode == replayLatched:
			// The guard does not run; only Reset leaves a latch.
		case kind == PanicObserve:
			mode = replayLatched
			o.panics++
		case mode == replayLive:
			if kind != None {
				mode = replayProbation
				if l <= 0 || budget == 0 || (budget > 0 && readmits >= budget) {
					mode = replayLatched
				}
			}
		case kind == None:
			calm++
			if calm >= l {
				mode = replayLive
				readmits++
			}
		default:
			calm = 0
		}
		switch {
		case from == replayLive && mode != replayLive:
			if o.demotions > 0 {
				o.redemotions++
			}
			o.demotions++
			if kind != PanicObserve {
				o.nonFinite++
			}
			calm = 0
		case from == replayProbation && mode == replayLive:
			o.recoveries++
			calm = 0
		}
		if mode == replayLatched && from != replayLatched {
			o.latches++
		}
		if mode != replayLive {
			o.demotedSteps++
		}
		if visit != nil {
			visit(step, mode != replayLive)
		}
	}
	o.end = mode
	return o
}

// DemotedAt predicts the demoted flag the server must report for the
// idx-th session's step-th decision — the loadgen oracle
// (loadgen.Config.ExpectDemoted) that checks every flag of a run.
func (s *Schedule) DemotedAt(idx uint64, step int) bool {
	var flag bool
	s.replay(s.SessionPlan(idx).Faults, func(st int, d bool) {
		if st == step {
			flag = d
		}
	})
	return flag
}

// Expected returns the closed-form outcome of a clean run of n clients,
// each drawing one of the first n created sessions. Every total but
// DemotedSteps is independent of which client drew which session:
// ServeScript's bounds put every scheduled transition before the first
// abort (faultStepMax + settle is steps/2, abortStepMin steps/2 + 1),
// and RecoveryScript has no aborts.
func (s *Schedule) Expected(n int) Expectation {
	var ex Expectation
	for i := 0; i < n; i++ {
		steps := s.steps
		if a := s.ClientPlan(i).AbortStep; a > 0 && a < steps {
			steps = a
		}
		ex.Steps += int64(steps)

		o := s.replay(s.SessionPlan(uint64(i)).Faults, nil)
		if o.demotions > 0 {
			ex.FirstDemotions++
		}
		ex.Demotions += o.demotions
		ex.Redemotions += o.redemotions
		ex.Recoveries += o.recoveries
		ex.Latched += o.latches
		ex.Panics += o.panics
		ex.NonFinite += o.nonFinite
		if o.end != replayLive {
			ex.EndDemoted++
		}
		if o.end == replayProbation {
			ex.EndProbation++
		}
		ex.DemotedSteps += int64(o.demotedSteps)
	}
	return ex
}
