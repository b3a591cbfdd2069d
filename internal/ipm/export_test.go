package ipm

// The scanner's entry points, for the external tests that assert which
// path decoded an input.
var (
	ScanDelta   = scanDelta
	ScanProfile = scanProfile
)
