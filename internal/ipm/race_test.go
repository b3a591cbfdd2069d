//go:build race

package ipm_test

func init() { raceEnabled = true }
