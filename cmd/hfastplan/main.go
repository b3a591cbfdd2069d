// Command hfastplan turns a communication profile into a physical HFAST
// wiring plan: how many active switch blocks to rack, and the exact
// circuit-switch port map — node uplinks, block-tree internal links, and
// one circuit per provisioned partner edge. This is the artifact an
// operator would hand to the control plane configuring the MEMS switch.
//
// Usage:
//
//	hfastsim -app lbmhd -p 64 | hfastplan
//	hfastplan -i gtc256.json -cutoff 2048 -blocksize 16 -full
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"github.com/hfast-sim/hfast/internal/hfast"
	"github.com/hfast-sim/hfast/internal/ipm"
	"github.com/hfast-sim/hfast/internal/pipeline"
	"github.com/hfast-sim/hfast/internal/report"
	"github.com/hfast-sim/hfast/internal/topology"
)

func main() {
	in := flag.String("i", "-", "input profile JSON (- for stdin)")
	cutoff := flag.Int("cutoff", topology.DefaultCutoff, "message-size cutoff in bytes")
	blockSize := flag.Int("blocksize", hfast.DefaultBlockSize, "active switch block ports")
	full := flag.Bool("full", false, "print every circuit (default prints a summary and the first 40)")
	flag.Parse()
	if flag.NArg() > 0 {
		usageErr(fmt.Sprintf("unexpected argument %q", flag.Arg(0)))
	}
	// The pipeline's own cutoff and block-size rules, checked before
	// anything prints.
	if _, err := (pipeline.FoldSeed{Cutoff: *cutoff}).Normalize(); err != nil {
		usageErr(err.Error())
	}
	if _, err := hfast.BlockSize(*blockSize); err != nil {
		usageErr(err.Error())
	}

	var src io.Reader = os.Stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			usageErr(err.Error())
		}
		defer f.Close()
		src = f
	}
	prof, err := ipm.ReadJSON(src)
	if err != nil {
		fail(err)
	}
	// The supplied profile enters the same stage chain hfastd serves:
	// graph, assignment, and wiring are resolved (and content-addressed)
	// by the pipeline rather than hand-rolled here.
	ref, err := pipeline.Supplied(prof)
	if err != nil {
		fail(err)
	}
	pipe := pipeline.New(pipeline.Options{})
	plan, _, err := pipe.Plan(context.Background(), ref, pipeline.Steady(), *cutoff, *blockSize)
	if err != nil {
		fail(err)
	}
	a, w := plan.Assignment, plan.Wiring

	fmt.Printf("# HFAST wiring plan: %s, P=%d, cutoff %d B, block size %d\n\n",
		prof.App, prof.Procs, a.Cutoff, a.BlockSize)
	u, max := plan.Summary.Ports, plan.Summary.MaxRoute
	fmt.Printf("active switch blocks: %d (%0.2f per node)\n", a.TotalBlocks, float64(a.TotalBlocks)/float64(a.P))
	fmt.Printf("active ports:         %d provisioned, %d lit (%.0f%% utilization)\n",
		u.ActivePorts, u.UsedActivePorts, 100*u.Utilization())
	fmt.Printf("circuit switch:       %d ports, %d lit\n", plan.Summary.SwitchPorts, plan.Summary.LitPorts)
	fmt.Printf("worst route:          %d switch-block hops, %d crossbar crossings\n\n", max.SBHops, max.Crossings)

	tbl := report.NewTable("circuit", "port A", "port B", "carries")
	count := 0
	emit := func(pa, pb int, what string) {
		count++
		if !*full && count > 40 {
			return
		}
		tbl.AddRow(fmt.Sprintf("%d", count), fmt.Sprintf("%d", pa), fmt.Sprintf("%d", pb), what)
	}
	// Every circuit once, at its lower port, in port order: node ports
	// come first and each node's blocks follow in node order. Only a
	// tree link reaches a block's port 0.
	owner := func(port int) int {
		return sort.SearchInts(w.BlockBase, (port-a.P)/a.BlockSize+1) - 1
	}
	for p := 0; p < plan.Summary.SwitchPorts; p++ {
		q := w.Switch.Peer(p)
		switch {
		case q < p: // dark, or listed at its lower port
		case p < a.P:
			emit(p, q, fmt.Sprintf("node %d uplink", p))
		case (q-a.P)%a.BlockSize == 0:
			emit(p, q, fmt.Sprintf("node %d tree link", owner(p)))
		default:
			emit(p, q, fmt.Sprintf("edge %d-%d", owner(p), owner(q)))
		}
	}
	tbl.Write(os.Stdout)
	if !*full && count > 40 {
		fmt.Printf("... %d more circuits (use -full to print all)\n", count-40)
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "hfastplan: %v\n", err)
	os.Exit(1)
}

// usageErr reports a usage-class mistake (bad invocation rather than a
// failed run): message plus flag usage, exit 2.
func usageErr(msg string) {
	fmt.Fprintf(os.Stderr, "hfastplan: %s\n", msg)
	flag.Usage()
	os.Exit(2)
}
