// Package cliutil carries the observability wiring shared by the dcer
// command-line binaries: the opt-in -telemetry exposition endpoint, the
// -traceout Chrome trace export, the -health monitor with its stall
// watchdog, and the leveled progress logger (DCER_LOG / -log).
package cliutil

import (
	"flag"
	"fmt"
	"net"
	"os"
	"strconv"
	"time"

	"dcer/internal/health"
	"dcer/internal/telemetry"
)

// ValidateTCPAddr checks that addr is usable as a TCP host:port for
// -listen/-connect style flags: the host part may be empty (all
// interfaces) but the port must be present and numeric in [0, 65535].
// It validates shape only — no DNS lookup, no bind.
func ValidateTCPAddr(addr string) error {
	_, port, err := net.SplitHostPort(addr)
	if err != nil {
		return fmt.Errorf("bad TCP address %q: %v", addr, err)
	}
	p, err := strconv.Atoi(port)
	if err != nil || p < 0 || p > 65535 {
		return fmt.Errorf("bad TCP address %q: port %q must be a number in [0, 65535]", addr, port)
	}
	return nil
}

// Flags holds the shared observability flags; call Register before
// flag.Parse and Init after.
type Flags struct {
	addr      *string
	level     *string
	traceout  *string
	healthDir *string
	stallDl   *time.Duration
	on        bool
	mon       *health.Monitor
}

// Register installs -telemetry, -traceout, -health, -stalldeadline and
// -log on the default flag set.
func Register() *Flags {
	return &Flags{
		addr: flag.String("telemetry", "",
			"serve /metrics, /debug/dcer, /debug/trace, /debug/health and pprof on this address (empty = disabled; :0 picks a port)"),
		traceout: flag.String("traceout", "",
			"write the run's causal trace as Chrome trace-event JSON to this file on exit (load in Perfetto or chrome://tracing)"),
		healthDir: flag.String("health", "",
			"enable the health monitor (invariant auditors, stall watchdog, /debug/health) writing flight-recorder bundles under this directory (empty = disabled)"),
		stallDl: flag.Duration("stalldeadline", 0,
			"stall-watchdog deadline for -health (0 = the generous default; small values clamp up)"),
		level: flag.String("log", "",
			"log level: debug, info, warn, error, off (default $DCER_LOG, else info)"),
	}
}

// Init resolves the flags after flag.Parse: it builds the binary's stderr
// logger and makes it telemetry.Default's wide-event logger, when
// -telemetry was given starts the exposition server over
// telemetry.Default, and when -health was given starts a health monitor
// (with its stall watchdog) over the same registry. When -traceout was
// given the returned stop function writes the retained span ring as
// Chrome trace-event JSON to the file; it is safe to defer either way.
func (f *Flags) Init(prefix string) (*telemetry.Logger, func(), error) {
	lvl := telemetry.LogLevelFromEnv()
	if *f.level != "" {
		var err error
		if lvl, err = telemetry.ParseLogLevel(*f.level); err != nil {
			return nil, nil, err
		}
	}
	logg := telemetry.NewLogger(os.Stderr, prefix, lvl)
	// Engines find their wide-event logger on the registry, so a debug
	// level alone attaches them to it.
	telemetry.Default.SetLogger(logg)
	f.on = lvl <= telemetry.LogDebug
	stopServe := func() {}
	if *f.addr != "" {
		srv, err := telemetry.Serve(*f.addr, telemetry.Default)
		if err != nil {
			return nil, nil, err
		}
		f.on = true
		logg.Infof("telemetry: http://%s/metrics (also /debug/dcer, /debug/trace, /debug/health, /debug/pprof/)", srv.Addr)
		stopServe = func() { srv.Close() }
	}
	if *f.traceout != "" {
		// Tracing rides the same registry as -telemetry; engines attach
		// via Registry(), so a -traceout run without -telemetry still
		// records spans (it just doesn't serve them).
		f.on = true
	}
	if *f.healthDir != "" {
		// The monitor rides telemetry.Default so /debug/health and the
		// dcer_health_* series appear wherever -telemetry serves, engines
		// attached via Registry() find it there, and its flight-recorder
		// bundles carry the logger's wide-event tail.
		f.on = true
		f.mon = health.NewMonitor(health.Options{
			Registry:      telemetry.Default,
			DiagnosisDir:  *f.healthDir,
			StallDeadline: *f.stallDl,
		})
		f.mon.Start()
		logg.Infof("health: monitor on, flight-recorder bundles under %s", *f.healthDir)
	}
	stop := func() {
		if *f.traceout != "" {
			if err := writeTrace(*f.traceout); err != nil {
				logg.Errorf("traceout: %v", err)
			} else {
				logg.Infof("traceout: wrote %s", *f.traceout)
			}
		}
		if f.mon != nil {
			f.mon.Stop()
		}
		stopServe()
	}
	return logg, stop, nil
}

// writeTrace exports telemetry.Default's span ring to path.
func writeTrace(path string) error {
	fh, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := telemetry.Default.Tracer().WriteChromeTrace(fh); err != nil {
		fh.Close()
		return err
	}
	if err := fh.Close(); err != nil {
		return fmt.Errorf("close %s: %w", path, err)
	}
	return nil
}

// Registry returns the registry engines should attach to, and with it the
// tracer, logger and health monitor it carries: telemetry.Default when
// -telemetry, -traceout or -health is live or the log level is debug, nil
// (all instruments no-op) otherwise.
func (f *Flags) Registry() *telemetry.Registry {
	if f.on {
		return telemetry.Default
	}
	return nil
}
