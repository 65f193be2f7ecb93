// Package hotclosure seeds the call-graph taint analyzer: an
// allocation two call-hops below the annotated root, dynamic-dispatch
// holes, a stop-suppressed cold exit, an ignore-suppressed dynamic
// call, a malformed stop that must NOT halt propagation, and two
// assembly leaves — one with //go:noescape, one without.
package hotclosure

type handler struct {
	onStep func(int) // the engine cannot see behind a func-typed field
	onDone func(int)
	out    []int
}

// Root is the annotated entry point: everything it reaches is hot.
//
//osap:hotpath
func Root(h *handler, n int) int {
	if n < 0 {
		return coldRebuild(n) //osap:hotpath-stop negative steps are a once-per-episode reset
	}
	return mid(h, n)
}

// coldRebuild allocates freely: the stop directive on its only call
// site keeps it out of the closure.
func coldRebuild(n int) int {
	return len(make([]int, -n))
}

// mid is hop one: unannotated, reached from Root.
func mid(h *handler, n int) int {
	h.onStep(n) // dynamic call inside the closure → finding
	//osap:ignore hotpath-closure the metrics callback is nil in production builds
	h.onDone(n)
	var x [4]float64
	sumNoEscape(&x[0], len(x)) // clean: the pragma keeps x on the stack
	sumEscapes(&x[0], len(x))  // finding: x is heap-forced
	return leaf(h, n) + badStop(n)
}

// sumNoEscape and sumEscapes stand for kernels written in assembly
// (stub.s is only there so that the compiler accepts a declaration
// without a body).
//
//go:noescape
func sumNoEscape(p *float64, n int) float64

func sumEscapes(p *float64, n int) float64

// leaf is hop two: its allocations must be reported with the chain
// Root → mid → leaf.
func leaf(h *handler, n int) int {
	xs := make([]int, n)
	h.out = append(h.out, n)
	return len(xs)
}

// badStop carries a malformed stop (no reason): a directives finding,
// and taint still flows through the edge into leakyLeaf.
func badStop(n int) int {
	return leakyLeaf(n) //osap:hotpath-stop
}

func leakyLeaf(n int) int {
	return len(make([]int, n))
}
