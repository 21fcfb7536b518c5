package main

import (
	"errors"
	"fmt"

	"dcer/internal/cliutil"
)

// modeConfig is the flag combination that selects the execution mode —
// sequential, in-process parallel, distributed master, or worker process
// — split out of main so the validation rules are table-testable.
type modeConfig struct {
	DataDir, RulesFile string
	Workers            int
	Distributed        bool
	Worker             bool
	Listen             string
	Connect            string
	WorkerID           int
	CrashAfter         int
	CrashWorker        int
	Out                string
}

// validateModes rejects inconsistent flag combinations with an error
// naming the offending flags, before any data is loaded.
func validateModes(c modeConfig) error {
	if c.DataDir == "" || c.RulesFile == "" {
		return errors.New("-data and -rules are required")
	}
	if c.Workers < 0 {
		return fmt.Errorf("invalid -workers %d: the worker count must not be negative (use 1 for the sequential Match)", c.Workers)
	}
	if c.Worker && c.Distributed {
		return errors.New("-worker and -distributed are mutually exclusive: a process is the master or a worker, not both")
	}
	if c.Worker {
		if c.Connect == "" {
			return errors.New("-worker requires -connect host:port (the master's address)")
		}
		if err := cliutil.ValidateTCPAddr(c.Connect); err != nil {
			return fmt.Errorf("-connect: %w", err)
		}
		if c.WorkerID < 0 {
			return fmt.Errorf("-worker requires a non-negative -worker-id, got %d", c.WorkerID)
		}
		if c.Listen != "" {
			return errors.New("-listen is the master's flag; a -worker dials -connect")
		}
		if c.CrashWorker >= 0 {
			return errors.New("-crash-worker is the master's flag; fault-inject a worker with -crash-after")
		}
		if c.Out != "" {
			return errors.New("-out belongs on the master; a -worker produces no output")
		}
		return nil
	}
	if c.Connect != "" {
		return errors.New("-connect only applies to -worker processes")
	}
	if c.WorkerID >= 0 {
		return errors.New("-worker-id only applies to -worker processes")
	}
	if c.CrashAfter > 0 {
		return errors.New("-crash-after only applies to -worker processes (use -crash-worker on a -distributed master)")
	}
	if !c.Distributed {
		if c.Listen != "" {
			return errors.New("-listen requires -distributed")
		}
		if c.CrashWorker >= 0 {
			return errors.New("-crash-worker requires -distributed")
		}
		return nil
	}
	if c.Workers < 2 {
		return fmt.Errorf("-distributed needs -workers >= 2 (got %d); a single worker is the in-process engine", c.Workers)
	}
	if c.Listen != "" {
		if err := cliutil.ValidateTCPAddr(c.Listen); err != nil {
			return fmt.Errorf("-listen: %w", err)
		}
	}
	if c.CrashWorker >= c.Workers {
		return fmt.Errorf("-crash-worker %d out of range: only %d workers", c.CrashWorker, c.Workers)
	}
	return nil
}
