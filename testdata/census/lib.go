package lib

func Used() int { return 1 }
func Dead() int { return Used() } // only lib_test.go calls it
