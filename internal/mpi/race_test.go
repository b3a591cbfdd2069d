//go:build race

package mpi

func init() { raceEnabled = true }
