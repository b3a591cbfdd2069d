// Command experiments regenerates the paper's tables and figures from the
// application skeletons, printing paper-vs-measured artifacts.
//
// Usage:
//
//	experiments -t all            # everything (runs all apps at P=64,256)
//	experiments -t table3         # just the Table 3 summary
//	experiments -t fig5 -steps 4  # GTC volume matrix + TDC sweep
//
// Targets: table1 table2 table3 fig2 fig3 fig4 fig5 fig6 fig7 fig8 fig9
// fig10 figures cases cost scaling ablation icn netsim trace replan sched
// faults placement ultra hints all (ultra and hints are not part of all)
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/hfast-sim/hfast/internal/experiments"
	"github.com/hfast-sim/hfast/internal/prof"
)

func main() {
	target := flag.String("t", "all", "artifact to regenerate")
	steps := flag.Int("steps", 0, "steady-state steps per app run (0 = default)")
	procs := flag.Int("p", 256, "process count for single-size artifacts")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "experiments: unexpected argument %q\n", flag.Arg(0))
		flag.Usage()
		os.Exit(2)
	}

	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}

	r := experiments.NewRunner(*steps)
	w := os.Stdout

	appFigs := map[string]string{
		"fig5": "gtc", "fig6": "cactus", "fig7": "lbmhd",
		"fig8": "superlu", "fig9": "pmemd", "fig10": "paratec",
	}

	run := func(name string) error {
		switch name {
		case "table1":
			experiments.Table1(w)
		case "table2":
			experiments.Table2(w)
		case "table3":
			return experiments.Table3(w, r)
		case "fig2":
			return experiments.Fig2(w, r, 64)
		case "fig3":
			return experiments.Fig3(w, r, *procs)
		case "fig4":
			return experiments.Fig4(w, r, *procs)
		case "figures":
			return experiments.Figures(w, r)
		case "cases":
			return experiments.Cases(w, r, *procs)
		case "cost":
			return experiments.CostModel(w, r, *procs)
		case "scaling":
			return experiments.Scaling(w)
		case "ablation":
			return experiments.Ablation(w, r, *procs)
		case "netsim":
			return experiments.Netsim(w, r, 64)
		case "icn":
			return experiments.ICNStudy(w, r, *procs, 16)
		case "sched":
			return experiments.Sched(w)
		case "faults":
			return experiments.Faults(w, r, *procs, 8)
		case "placement":
			return experiments.Placement(w, r, 64, 40000)
		case "trace":
			return experiments.TraceStudy(w, r, *procs)
		case "replan":
			return experiments.Replan(w, r, 64)
		case "ultra":
			return experiments.Ultra(w, r)
		case "hints":
			return experiments.Hints(w)
		default:
			if app, ok := appFigs[name]; ok {
				return experiments.FigApp(w, r, app)
			}
			return fmt.Errorf("unknown target %q", name)
		}
		return nil
	}

	var targets []string
	if *target == "all" {
		targets = []string{"table1", "table2", "fig2", "fig3", "fig4", "figures",
			"table3", "cases", "cost", "scaling", "ablation", "icn", "netsim", "trace", "replan", "sched", "faults", "placement"}
	} else {
		targets = []string{*target}
	}
	code := 0
	for _, t := range targets {
		if err := run(t); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", t, err)
			code = 1
			break
		}
		fmt.Fprintln(w)
	}
	// Flush the profiles even when a target failed: a stalled ultra run
	// is exactly when the CPU profile matters.
	if err := stopProf(); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		code = 1
	}
	os.Exit(code)
}
