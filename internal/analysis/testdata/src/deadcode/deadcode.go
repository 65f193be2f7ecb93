// Package deadcode is the deadcode analyzer's fixture. It is a module
// of its own so that a load of ./... from its directory is a
// whole-module load. This file is its root package, whose exported
// declarations are API and therefore roots.
package deadcode

import "example.com/deadcode/shapes"

// Unused is exported by the root package: API, never reported.
func Unused() int { return apiHelper() }

// apiHelper is reached from the API.
func apiHelper() int { return 1 }

// Total sums the areas of the shapes it builds; main calls it.
func Total() float64 {
	var sum float64
	for _, s := range shapes.All() {
		sum += s.Area()
	}
	return sum
}

// unreachable has no caller at all.
func unreachable() int { return 2 }

// onlyFromDead is called only by unreachable code, so it is dead too.
func onlyFromDead() int { return deadCaller() }

func deadCaller() int { return onlyFromDead() }

//osap:ignore deadcode kept on purpose: the fixture's suppressed case
func suppressed() int { return keptBySuppressed() }

// keptBySuppressed has no caller but suppressed, which the directive
// keeps, and so it is kept too.
func keptBySuppressed() int { return 3 }
