// Command bench is the one ledger for the whole chain: six named
// workloads driven against an in-process hfastd (and the simulator),
// end-to-end metrics from an untraced pass, per-layer metrics from a
// traced one, output oracles on every answer. See README.md.
//
//	go run ./bench                          all six workloads, one child process each
//	go run ./bench -workload provision_warm one workload, in this process
//	go run ./bench -trace 1                 the traced pass (per-layer rows, bench/out/trace-*.json)
//	go run ./bench -out a.json              append the records to a ledger file
//	go run ./bench -compare a.json b.json   judge two ledgers against BENCHMARK.json's bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// defaultSeconds is the timed window; BENCHMARK.json's run_seconds says
// the same, and the smoke test holds them together.
const defaultSeconds = 10

func main() {
	var (
		name    = flag.String("workload", "", "run one workload in this process (default: all six, one child process each)")
		seed    = flag.Int64("seed", 1, "fixes the request order and the spec seeds")
		seconds = flag.Float64("seconds", defaultSeconds, "timed window per workload, after a discarded warm-up of a fifth of it")
		trace   = flag.Int("trace", 0, "1 runs the traced pass: per-layer metrics, spans written to -outdir")
		outdir  = flag.String("outdir", "bench/out", "directory for trace files")
		out     = flag.String("out", "", "append this run's records to a ledger file, one JSON object per line")
		compare = flag.Bool("compare", false, "compare two ledger files (arguments) against the bounds in BENCHMARK.json")
	)
	flag.Parse()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(2, "usage: bench -compare a.json b.json")
		}
		regressed, err := compareLedgers(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(1, "%v", err)
		}
		if regressed {
			os.Exit(1)
		}
	case flag.NArg() != 0:
		fatal(2, "unexpected arguments %q", flag.Args())
	case *name == "":
		if !runAll(*seed, *seconds, *trace, *outdir, *out) {
			os.Exit(1)
		}
	default:
		wl, err := lookupWorkload(*name)
		if err != nil {
			fatal(2, "%v", err)
		}
		rec, err := runWorkload(wl, options{seed: *seed, seconds: *seconds, trace: *trace != 0, outdir: *outdir})
		if err != nil {
			fatal(1, "%v", err)
		}
		if *out != "" {
			if err := appendRecord(*out, rec); err != nil {
				fatal(1, "%v", err)
			}
		}
		rec.print(os.Stdout)
		if !rec.Correct {
			os.Exit(1)
		}
	}
}

func fatal(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(code)
}

// runAll runs every workload in a child process of its own, so that
// netsim's pooled arenas, sync.Pools and the heap one workload grew do
// not leak into the next one's numbers. It reports whether all were
// correct.
func runAll(seed int64, seconds float64, trace int, outdir, out string) bool {
	exe, err := os.Executable()
	if err != nil {
		fatal(1, "%v", err)
	}
	ok := true
	for _, wl := range workloads {
		args := []string{"-workload", wl.name, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace), "-outdir", outdir}
		if out != "" {
			args = append(args, "-out", out)
		}
		cmd := exec.Command(exe, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", wl.name, err)
			ok = false
		}
	}
	return ok
}

// print writes the human-readable ledger of the run and, as the last
// line, the one JSON object the driver reads.
func (rec *record) print(w *os.File) {
	e := rec.Env
	fmt.Fprintf(w, "== %s  seed=%d trace=%v  cpus=%d gomaxprocs=%d %s commit=%s load1=%.2f noisy=%v\n",
		rec.Workload, rec.Seed, rec.Trace, e.CPUs, e.GOMAXPROCS, e.Go, e.Commit, e.Load1, e.Noisy)
	ratio := 0.0
	if rec.Attempted > 0 {
		ratio = float64(rec.Failed) / float64(rec.Attempted)
	}
	fmt.Fprintf(w, "   %-40s %14d count   (%d cycles)\n", "samples", rec.Samples, rec.Cycles)
	fmt.Fprintf(w, "   %-40s %14.6g ratio   (%d failed of %d attempted)\n", "fail_ratio", ratio, rec.Failed, rec.Attempted)
	for _, name := range sortedNames(rec.Metrics) {
		// A traced run prints the rows of the layers the workload enters;
		// the JSON line carries every declared row, the others at 0.
		if rec.own[name] {
			v := rec.Metrics[name]
			fmt.Fprintf(w, "   %-40s %14.6g %s\n", name, v.Value, v.Unit)
		}
	}
	for _, name := range sortedNames(rec.Ungated) {
		v := rec.Ungated[name]
		fmt.Fprintf(w, "   %-40s %14.6g %s   (not gated)\n", name, v.Value, v.Unit)
	}
	for _, msg := range rec.Errors {
		fmt.Fprintf(w, "   FAILED: %s\n", msg)
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
	if err != nil {
		fatal(1, "%v", err)
	}
	fmt.Fprintf(w, "%s\n", line)
}

// appendRecord adds the record to the ledger file as one JSON line.
func appendRecord(path string, rec *record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
