package lib

import "testing"

var _ = Dead()

// CI fuzzes FuzzRun and not FuzzUnrun.
func FuzzRun(f *testing.F)   {}
func FuzzUnrun(f *testing.F) {}
