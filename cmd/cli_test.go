package cmd_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestCLIs builds the five commands once and runs them as the README
// does: the profile → report → wiring-plan chain, the paper regenerator,
// each command's usage error, and hfastd from start to drained exit.
func TestCLIs(t *testing.T) {
	bin := t.TempDir()
	if out, err := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./...").CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/...: %v\n%s", err, out)
	}
	// run runs a command that must succeed and returns its stdout.
	run := func(t *testing.T, name string, args ...string) string {
		t.Helper()
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(filepath.Join(bin, name), args...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("%s %s: %v\n%s", name, strings.Join(args, " "), err, stderr.Bytes())
		}
		return stdout.String()
	}
	// mustContain fails unless out has every line fragment in want.
	mustContain := func(t *testing.T, what, out string, want ...string) {
		t.Helper()
		for _, w := range want {
			if !strings.Contains(out, w) {
				t.Errorf("%s does not say %q:\n%s", what, w, out)
			}
		}
	}

	t.Run("readme chain", func(t *testing.T) {
		prof := filepath.Join(t.TempDir(), "c.json")
		run(t, "hfastsim", "-app", "cactus", "-p", "16", "-o", prof)
		mustContain(t, "ipmreport", run(t, "ipmreport", "-i", prof), "cactus", "TDC@2KB(max,avg)")
		mustContain(t, "ipmreport -cutoff 4096", run(t, "ipmreport", "-i", prof, "-cutoff", "4096"), "TDC@4KB(max,avg)")
		mustContain(t, "hfastplan", run(t, "hfastplan", "-i", prof), "# HFAST wiring plan: cactus, P=16", "node 0 uplink")
	})

	t.Run("experiments", func(t *testing.T) {
		mustContain(t, "-t table1", run(t, "experiments", "-t", "table1"), "Table 1: bandwidth-delay products", "threshold adopted: 2048 bytes")
		mustContain(t, "-t hints", run(t, "experiments", "-t", "hints"), "declared and measured partners are identical")
	})

	// Every lit port belongs to one circuit, and -full lists every
	// circuit: uplinks, block-tree links and partner edges. PARATEC's
	// degree needs three blocks a node, so its trees have internal links.
	t.Run("hfastplan lists every circuit", func(t *testing.T) {
		prof := filepath.Join(t.TempDir(), "p.json")
		run(t, "hfastsim", "-app", "paratec", "-p", "32", "-o", prof)
		out := run(t, "hfastplan", "-i", prof, "-full")
		m := regexp.MustCompile(`circuit switch: +\d+ ports, (\d+) lit`).FindStringSubmatch(out)
		if m == nil {
			t.Fatalf("no circuit switch summary:\n%s", out)
		}
		lit, _ := strconv.Atoi(m[1])
		rows := regexp.MustCompile(`(?m)^\d+ +\d+ +\d+ +`).FindAllString(out, -1)
		if len(rows) != lit/2 {
			t.Errorf("-full lists %d circuits, the summary counts %d lit ports (%d circuits)", len(rows), lit, lit/2)
		}
		mustContain(t, "-full", out, "node 0 tree link", "edge 0-1")
	})

	// A usage error is refused before anything reaches stdout: no report
	// computed at some other value than the one asked for.
	t.Run("usage errors exit 2", func(t *testing.T) {
		cases := [][]string{
			{"hfastsim", "-no-such-flag"}, {"hfastsim", "-app", "nosuch"}, {"hfastsim", "-app", "cactus", "extra"},
			{"hfastsim", "-app", "cactus", "-p", "0"},
			{"ipmreport", "-no-such-flag"}, {"ipmreport", "-i", filepath.Join(bin, "missing.json")}, {"ipmreport", "extra"},
			{"ipmreport", "-cutoff", "-1"},
			{"hfastplan", "-no-such-flag"}, {"hfastplan", "-i", filepath.Join(bin, "missing.json")}, {"hfastplan", "extra"},
			{"hfastplan", "-cutoff", "-1"}, {"hfastplan", "-blocksize", "2"},
			{"experiments", "-no-such-flag"}, {"experiments", "extra"},
			{"hfastd", "-no-such-flag"}, {"hfastd", "extra"},
		}
		for _, c := range cases {
			var stdout bytes.Buffer
			cmd := exec.Command(filepath.Join(bin, c[0]), c[1:]...)
			cmd.Stdout = &stdout
			err := cmd.Run()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Errorf("%s: %v, want exit status 2", strings.Join(c, " "), err)
			}
			if stdout.Len() > 0 {
				t.Errorf("%s printed %d bytes to stdout before its usage error", strings.Join(c, " "), stdout.Len())
			}
		}
	})

	t.Run("hfastd serves and drains", func(t *testing.T) {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		cmd := exec.CommandContext(ctx, filepath.Join(bin, "hfastd"), "-addr", "127.0.0.1:0", "-workers", "1")
		stderr, err := cmd.StderrPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		var log strings.Builder
		lines := bufio.NewScanner(stderr)
		addr := ""
		for addr == "" && lines.Scan() {
			log.WriteString(lines.Text() + "\n")
			_, addr, _ = strings.Cut(lines.Text(), "listening on ")
		}
		if addr == "" {
			cmd.Wait()
			t.Fatalf("hfastd never said where it listens:\n%s", log.String())
		}
		base := "http://" + addr
		get := func(method, path, body string) (int, string) {
			req, _ := http.NewRequestWithContext(ctx, method, base+path, strings.NewReader(body))
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatalf("%s %s: %v", method, path, err)
			}
			defer resp.Body.Close()
			b, _ := io.ReadAll(resp.Body)
			return resp.StatusCode, string(b)
		}
		if code, body := get(http.MethodGet, "/healthz", ""); code != http.StatusOK {
			t.Errorf("/healthz: %d %s", code, body)
		}
		code, body := get(http.MethodPost, "/v1/provision", `{"app":"gtc","procs":16}`)
		var plan struct {
			App      string
			Circuits int
		}
		if err := json.Unmarshal([]byte(body), &plan); code != http.StatusOK || err != nil || plan.App != "gtc" || plan.Circuits == 0 {
			t.Errorf("/v1/provision: %d %s", code, body)
		}
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		for lines.Scan() {
			log.WriteString(lines.Text() + "\n")
		}
		if err := cmd.Wait(); err != nil {
			t.Errorf("hfastd after SIGTERM: %v\n%s", err, log.String())
		}
		mustContain(t, "hfastd's log", log.String(), "draining", "hfastd: bye")
	})
}
