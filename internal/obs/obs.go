// Package obs holds what hfastd's layers share of their observability
// surface. Today that is the Prometheus text exposition format: the
// server, pipeline and cluster metrics each keep their own counters and
// write their section of /metrics through the two functions here, so a
// HELP line, a TYPE line and a sample are each formatted in one place.
package obs

import (
	"fmt"
	"io"
)

// Header writes a metric family's # HELP and # TYPE lines; typ is
// "counter", "gauge" or "histogram".
func Header(w io.Writer, name, help, typ string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// Sample writes one series: the name, its labels — (name, value) pairs,
// the value quoted as Go quotes a string — and the sample value, an
// integer of any width in decimal and a float64 in %g.
func Sample(w io.Writer, name string, v any, labels ...string) {
	io.WriteString(w, name)
	for i := 0; i+1 < len(labels); i += 2 {
		sep := ","
		if i == 0 {
			sep = "{"
		}
		fmt.Fprintf(w, "%s%s=%q", sep, labels[i], labels[i+1])
	}
	if len(labels) > 0 {
		io.WriteString(w, "}")
	}
	if f, ok := v.(float64); ok {
		fmt.Fprintf(w, " %g\n", f)
	} else {
		fmt.Fprintf(w, " %d\n", v)
	}
}

// Single writes a family of one unlabelled series.
func Single(w io.Writer, name, help, typ string, v any) {
	Header(w, name, help, typ)
	Sample(w, name, v)
}
