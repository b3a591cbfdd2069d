//go:build race

package apps

func init() { raceEnabled = true }
