package lib

import "sync"

// Limit is exported, so the knob census leaves it to the API.
const Limit = 1 << 20

// Used is DESIGN.md X1, and DESIGN.md X2 is no experiment.
func Used() int { return Limit >> 20 }
func Dead() int { return Used() } // only lib_test.go calls it

// Adapter is spelled only by its own method's receiver; Used, the
// method's name, is spelled elsewhere, so only the type is dead.
type Adapter func() int

func (a Adapter) Used() int { return a() }

// The knob census finds pool and chunk, and nothing else in this file.
var pool = sync.Pool{New: func() any { return new(int) }}

const chunk = 64 << 10

var label = "lib"
