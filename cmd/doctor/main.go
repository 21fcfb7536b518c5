// Command doctor answers "is my engine healthy, and is it still
// accurate?": it scrapes the /debug/health endpoint of a live dcer
// process (one started with -telemetry and -health) or reads a
// flight-recorder bundle written by the stall watchdog, and prints a
// human-readable pass/warn/fail diagnosis.
//
// Usage:
//
//	doctor -addr 127.0.0.1:9090          # scrape a live process
//	doctor -bundle dcer-health/bundle-1-… # read a captured bundle
//
// The exit status is 0 when every check passes (warnings allowed), 1 when
// any check fails, has recorded violations, or no monitor is attached,
// and 2 on usage or I/O errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"dcer/internal/health"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command with its arguments and output streams explicit; it
// returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("doctor", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "", "address of a live process's telemetry endpoint (host:port)")
	bundle := fs.String("bundle", "", "path of a flight-recorder bundle directory")
	timeout := fs.Duration("timeout", 10*time.Second, "scrape timeout for -addr")
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	if (*addr == "") == (*bundle == "") {
		fmt.Fprintln(stderr, "doctor: exactly one of -addr or -bundle is required")
		fs.Usage()
		return 2
	}

	var rep health.Report
	switch {
	case *addr != "":
		r, err := scrape(*addr, *timeout)
		if err != nil {
			fmt.Fprintf(stderr, "doctor: %v\n", err)
			return 2
		}
		rep = r
		fmt.Fprintf(stdout, "health report scraped from %s\n", *addr)
	default:
		b, err := health.LoadBundle(*bundle)
		if err != nil {
			fmt.Fprintf(stderr, "doctor: %v\n", err)
			return 2
		}
		rep = b.Report
		fmt.Fprintf(stdout, "flight-recorder bundle %s (reason: %s, captured %s)\n",
			b.Dir, b.Manifest.Reason, time.Unix(0, b.Manifest.CapturedNs).UTC().Format(time.RFC3339))
		for _, miss := range b.Missing {
			fmt.Fprintf(stdout, "WARN bundle incomplete: missing %s\n", miss)
		}
	}

	d := health.Diagnose(rep)
	fmt.Fprintln(stdout, d.String())
	switch {
	case d.Failures > 0:
		fmt.Fprintf(stdout, "UNHEALTHY: %d failure(s), %d warning(s)\n", d.Failures, d.Warnings)
		return 1
	case d.Warnings > 0:
		fmt.Fprintf(stdout, "healthy with %d warning(s)\n", d.Warnings)
	default:
		fmt.Fprintln(stdout, "healthy")
	}
	return 0
}

// scrape fetches and decodes /debug/health from a live process.
func scrape(addr string, timeout time.Duration) (health.Report, error) {
	var rep health.Report
	client := &http.Client{Timeout: timeout}
	resp, err := client.Get("http://" + addr + "/debug/health")
	if err != nil {
		return rep, fmt.Errorf("scraping %s: %w", addr, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return rep, fmt.Errorf("reading %s/debug/health: %w", addr, err)
	}
	if resp.StatusCode != http.StatusOK {
		return rep, fmt.Errorf("%s/debug/health: %s", addr, resp.Status)
	}
	if err := json.Unmarshal(body, &rep); err != nil {
		return rep, fmt.Errorf("parsing %s/debug/health: %w", addr, err)
	}
	return rep, nil
}
