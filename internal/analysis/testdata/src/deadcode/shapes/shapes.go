// Package shapes is a library the fixture's main package imports, so
// its exported functions are not roots: they live only if called.
package shapes

// Shape is the interface the loaded code mentions.
type Shape interface{ Area() float64 }

type square struct{ side float64 }

// Area satisfies Shape: reached through the interface, never reported.
func (s square) Area() float64 { return s.side * s.side }

// Perimeter satisfies no interface the code mentions and has no caller.
func (s square) Perimeter() float64 { return 4 * s.side }

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
	out := []Shape{square{2}}
	for _, m := range makers {
		out = append(out, m())
	}
	return out
}

// Exported is exported by a package another loaded package imports,
// so it is not API; nothing calls it.
func Exported() int { return 4 }
