// Command hfastsim runs one application communication skeleton under the
// IPM collector and writes the profile as JSON.
//
// Usage:
//
//	hfastsim -app gtc -p 256 -steps 8 -o gtc256.json
//	hfastsim -list
//
// The JSON profile feeds ipmreport (human-readable analysis) or any other
// consumer of the ipm.Profile schema.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"github.com/hfast-sim/hfast/internal/apps"
	"github.com/hfast-sim/hfast/internal/pipeline"
	"github.com/hfast-sim/hfast/internal/prof"
)

func main() {
	app := flag.String("app", "", "application skeleton to run (see -list)")
	procs := flag.Int("p", 64, "number of ranks")
	steps := flag.Int("steps", 0, "steady-state steps (0 = default)")
	scale := flag.Int("scale", 0, "problem-size knob (0 = app default)")
	seed := flag.Int64("seed", 0, "workload randomization seed")
	out := flag.String("o", "-", "output file (- for stdout)")
	list := flag.Bool("list", false, "list available applications")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()
	if flag.NArg() > 0 {
		usageErr(fmt.Sprintf("unexpected argument %q", flag.Arg(0)))
	}

	if *list {
		fmt.Printf("%-10s %-16s %s\n", "NAME", "DISCIPLINE", "PROBLEM")
		for _, in := range apps.Registry {
			fmt.Printf("%-10s %-16s %s\n", in.Name, in.Discipline, in.Problem)
		}
		return
	}
	if *app == "" {
		usageErr("-app is required (use -list to see choices)")
	}
	if _, err := apps.Lookup(*app); err != nil {
		usageErr(fmt.Sprintf("%v (use -list to see choices)", err))
	}
	if *procs <= 0 {
		usageErr(fmt.Sprintf("-p must be positive, got %d", *procs))
	}
	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hfastsim: %v\n", err)
		os.Exit(1)
	}
	// Flush the profiles on every exit path: a run that died mid-skeleton
	// is exactly when the CPU profile matters.
	fatal := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "hfastsim: "+format+"\n", args...)
		_ = stopProf()
		os.Exit(1)
	}
	// One-shot from the CLI, but routed through the pipeline's profile
	// stage so the run is keyed and cached like every other producer.
	pipe := pipeline.New(pipeline.Options{})
	profile, _, err := pipe.Profile(context.Background(), pipeline.Spec(pipeline.ProfileSpec{
		App:   *app,
		Procs: *procs,
		Steps: *steps,
		Scale: *scale,
		Seed:  *seed,
	}))
	if err != nil {
		fatal("%v", err)
	}
	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fatal("%v", err)
		}
		defer f.Close()
		w = f
	}
	if err := profile.WriteJSON(w); err != nil {
		fatal("writing profile: %v", err)
	}
	if err := stopProf(); err != nil {
		fmt.Fprintf(os.Stderr, "hfastsim: %v\n", err)
		os.Exit(1)
	}
}

// usageErr reports a usage-class mistake (bad invocation rather than a
// failed run): message plus flag usage, exit 2.
func usageErr(msg string) {
	fmt.Fprintf(os.Stderr, "hfastsim: %s\n", msg)
	flag.Usage()
	os.Exit(2)
}
