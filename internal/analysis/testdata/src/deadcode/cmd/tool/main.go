// Command tool is the fixture's main package: its main is a root.
package main

import (
	"fmt"

	"example.com/deadcode"
)

func main() { fmt.Println(deadcode.Total()) }

// helper has no caller in its own main package.
func helper() {}
