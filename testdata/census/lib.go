package lib

import "sync"

// Limit is exported, so the knob census leaves it to the API.
const Limit = 1 << 20

// Used is DESIGN.md X1, and DESIGN.md X2 is no experiment.
func Used() int { return Limit >> 20 }
func Dead() int { return Used() } // only lib_test.go calls it

// The knob census finds pool and chunk, and nothing else in this file.
var pool = sync.Pool{New: func() any { return new(int) }}

const chunk = 64 << 10

var label = "lib"
