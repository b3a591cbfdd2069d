// Package bdp reproduces the paper's Table 1: bandwidth-delay products of
// leading-edge interconnect implementations, which motivate the 2 KB
// thresholding used throughout the study. The bandwidth-delay product is
// the number of bytes that must be in flight to saturate a link — the
// smallest message that benefits from a dedicated HFAST circuit.
package bdp

import "fmt"

// Interconnect describes one row of Table 1.
type Interconnect struct {
	// System and Technology name the platform and link technology.
	System     string
	Technology string
	// LatencyUS is the MPI latency in microseconds.
	LatencyUS float64
	// BandwidthMBs is the effective peak unidirectional bandwidth per CPU
	// in MB/s (decimal; the paper quotes GB/s).
	BandwidthMBs float64
}

// Product returns the bandwidth-delay product in bytes: latency ×
// bandwidth.
func (ic Interconnect) Product() float64 {
	return ic.LatencyUS * 1e-6 * ic.BandwidthMBs * 1e6
}

// ProductKB returns the bandwidth-delay product in kilobytes (KB = 1000
// bytes, matching the paper's rounding).
func (ic Interconnect) ProductKB() float64 {
	return ic.Product() / 1000
}

// String renders a Table 1 row.
func (ic Interconnect) String() string {
	return fmt.Sprintf("%-20s %-16s %5.1fus %7.1fMB/s %6.1fKB",
		ic.System, ic.Technology, ic.LatencyUS, ic.BandwidthMBs, ic.ProductKB())
}

// Table1 holds the paper's five platforms with their published link
// parameters.
var Table1 = []Interconnect{
	{System: "SGI Altix", Technology: "Numalink-4", LatencyUS: 1.1, BandwidthMBs: 1900},
	{System: "Cray X1", Technology: "Cray Custom", LatencyUS: 7.3, BandwidthMBs: 6300},
	{System: "NEC Earth Simulator", Technology: "NEC Custom", LatencyUS: 5.6, BandwidthMBs: 1500},
	{System: "Myrinet Cluster", Technology: "Myrinet 2000", LatencyUS: 5.7, BandwidthMBs: 500},
	{System: "Cray XD1", Technology: "RapidArray/IB4x", LatencyUS: 1.7, BandwidthMBs: 2000},
}

// PaperProductsKB are the bandwidth-delay products Table 1 reports, in KB,
// keyed by system name. (The paper's Altix entry rounds 2.09 KB to 2 KB.)
var PaperProductsKB = map[string]float64{
	"SGI Altix":           2,
	"Cray X1":             46,
	"NEC Earth Simulator": 8.4,
	"Myrinet Cluster":     2.8,
	"Cray XD1":            3.4,
}

// TargetThreshold is the paper's chosen threshold: 2 KB, the best (lowest)
// bandwidth-delay product of Table 1 and "an aggressive goal for future
// leading-edge switch technologies".
const TargetThreshold = 2048

// BestProduct returns the smallest bandwidth-delay product in the table,
// in bytes.
func BestProduct() float64 {
	best := Table1[0].Product()
	for _, ic := range Table1[1:] {
		if p := ic.Product(); p < best {
			best = p
		}
	}
	return best
}
