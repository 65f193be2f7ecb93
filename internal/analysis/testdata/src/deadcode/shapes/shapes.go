// Package shapes is a library the fixture's main package imports, so
// its exported functions are not roots: they live only if called.
package shapes

import "sort"

// Shape is the interface the loaded code mentions.
type Shape interface{ Area() float64 }

type square struct{ side float64 }

// Area satisfies Shape: reached through the interface, never reported.
func (s square) Area() float64 { return s.side * s.side }

// Perimeter satisfies no interface the code mentions and has no caller.
func (s square) Perimeter() float64 { return 4 * s.side }

// Namer is an interface of the module that no code calls Name through.
type Namer interface{ Name() string }

var _ Namer = square{}

// Name satisfies Namer, but no call through a Namer reaches it.
func (s square) Name() string { return "square" }

// bySide is sorted by the standard library, which calls Len, Less and
// Swap through sort.Interface from code the load does not see.
type bySide []square

func (b bySide) Len() int           { return len(b) }
func (b bySide) Less(i, j int) bool { return b[i].side < b[j].side }
func (b bySide) Swap(i, j int)      { b[i], b[j] = b[j], b[i] }

// Sorted returns squares ordered by side.
func Sorted(squares []square) []square {
	sort.Sort(bySide(squares))
	return squares
}

type circle struct{ r float64 }

func (c circle) Area() float64 { return 3 * c.r * c.r }

// grow is used only as a method value.
func (c circle) grow(k float64) circle { return circle{c.r * k} }

// makers is a var whose initializer alone references newCircle.
var makers = []func() Shape{newCircle}

func newCircle() Shape {
	scale := circle{1}.grow
	return scale(2)
}

// All builds one shape of each kind.
func All() []Shape {
	var out []Shape
	for _, sq := range Sorted([]square{{3}, {2}}) {
		out = append(out, sq)
	}
	for _, m := range makers {
		out = append(out, m())
	}
	return out
}

// Exported is exported by a package another loaded package imports,
// so it is not API; nothing calls it.
func Exported() int { return 4 }
