// Command dmatch runs deep and collective entity resolution over a
// directory of CSV relations and a file of MRL rules.
//
// Usage:
//
//	dmatch -data ./data -rules rules.mrl [-workers 8] [-v]
//	       [-out matches.csv]
//	       [-telemetry :9090] [-traceout trace.json] [-health dir]
//	       [-timeline] [-log debug]
//
// With -telemetry the run serves live Prometheus-style metrics at
// /metrics, the trace ring and BSP timeline as JSON at /debug/dcer, the
// causal trace as Chrome trace-event JSON at /debug/trace, the health
// report at /debug/health, and the standard pprof handlers. With -health
// the engines run under the health observatory — invariant auditors,
// stall watchdog writing flight-recorder bundles under the given
// directory — inspectable live with cmd/doctor. With -traceout the causal trace (supersteps,
// per-worker Deduce lanes, routing, drain rounds) is written to the
// given file on exit — load it in Perfetto (https://ui.perfetto.dev) or
// chrome://tracing. -timeline prints the superstep Gantt chart of a
// parallel run to stderr when it finishes; -log debug emits one wide
// JSON event per superstep and per drain round.
//
// Each data/<name>.csv becomes relation <name>; the header row is typed
// ("attr:type", with "!id" marking the designated id attribute). The rule
// file uses the MRL DSL (see the rule package docs). Output is one line
// per resolved entity class listing the member tuples. To see why two
// tuples match, run cmd/explain -pair over the same inputs: it prints the
// proof from the production engine's justification log (with -workers >
// 1, from the stitched cross-worker log of the parallel run).
package main

import (
	"encoding/csv"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"time"

	"dcer"
	"dcer/internal/cliutil"
)

// runDistributedMaster re-executes this binary as the worker processes
// (each loads the same -data/-rules itself) and drives the distributed
// BSP fixpoint over TCP. With crashWorker >= 0, that worker is spawned
// with -crash-after 1 to exercise the recovery path.
func runDistributedMaster(d *dcer.Dataset, rules []*dcer.Rule, reg *dcer.ClassifierRegistry,
	popts dcer.ParallelOptions, dataDir, rulesFile, listen string, crashWorker int) (*dcer.ParallelResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locating own binary for worker spawn: %w", err)
	}
	var procs []*exec.Cmd
	spawn := func(worker int, addr string) error {
		args := []string{
			"-worker", "-connect", addr, "-worker-id", strconv.Itoa(worker),
			"-data", dataDir, "-rules", rulesFile,
		}
		if worker == crashWorker {
			args = append(args, "-crash-after", "1")
		}
		cmd := exec.Command(exe, args...)
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return err
		}
		procs = append(procs, cmd)
		return nil
	}
	res, err := dcer.MatchDistributed(d, rules, reg, popts, dcer.DistributedOptions{
		Listen: listen,
		Spawn:  spawn,
	})
	for _, p := range procs {
		p.Wait() // reap; a crash-injected worker exits 3 by design
	}
	return res, err
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("dmatch: ")
	dataDir := flag.String("data", "", "directory of <relation>.csv files")
	rulesFile := flag.String("rules", "", "MRL rule file")
	workers := flag.Int("workers", 1, "number of BSP workers (1 = sequential Match)")
	verbose := flag.Bool("v", false, "print engine statistics")
	outFile := flag.String("out", "", "also write the matches as CSV (relation,id,entity columns)")
	timeline := flag.Bool("timeline", false, "print the BSP superstep Gantt chart after a parallel run")
	distributed := flag.Bool("distributed", false, "run the BSP workers as separate OS processes over TCP (master mode; needs -workers >= 2)")
	listen := flag.String("listen", "", "master listen address with -distributed (default 127.0.0.1:0, an ephemeral local port)")
	workerMode := flag.Bool("worker", false, "run as a distributed worker process (spawned by a -distributed master)")
	connect := flag.String("connect", "", "master address a -worker dials")
	workerID := flag.Int("worker-id", -1, "this worker's slot (with -worker)")
	crashAfter := flag.Int("crash-after", 0, "fault injection: abort this -worker after sending N deltas (exit code 3)")
	crashWorker := flag.Int("crash-worker", -1, "fault injection: spawn worker N with -crash-after 1 (with -distributed; exercises recovery)")
	obs := cliutil.Register()
	flag.Parse()
	if *dataDir == "" || *rulesFile == "" {
		flag.Usage()
		os.Exit(2)
	}
	if err := validateModes(modeConfig{
		DataDir: *dataDir, RulesFile: *rulesFile, Workers: *workers,
		Distributed: *distributed, Worker: *workerMode,
		Listen: *listen, Connect: *connect, WorkerID: *workerID,
		CrashAfter: *crashAfter, CrashWorker: *crashWorker,
		Out: *outFile,
	}); err != nil {
		log.Fatal(err)
	}
	logg, stopTel, err := obs.Init("dmatch")
	if err != nil {
		log.Fatal(err)
	}
	defer stopTel()

	d, err := dcer.LoadDir(*dataDir)
	if err != nil {
		log.Fatal(err)
	}
	text, err := os.ReadFile(*rulesFile)
	if err != nil {
		log.Fatal(err)
	}
	rules, err := dcer.ParseRules(string(text), d.DB)
	if err != nil {
		log.Fatal(err)
	}
	reg := dcer.DefaultClassifiers()

	if *workerMode {
		// Worker half of a distributed run: this process loaded the same
		// -data/-rules the master did (the handshake fingerprint proves
		// it); serve supersteps until the master says done.
		err := dcer.MatchWorker(*connect, d, rules, reg, dcer.DistributedWorkerOptions{
			Worker:     *workerID,
			CrashAfter: *crashAfter,
		})
		if errors.Is(err, dcer.ErrWorkerCrash) {
			os.Exit(3)
		}
		if err != nil {
			log.Fatal(err)
		}
		return
	}

	var classes [][]dcer.TID
	if *workers <= 1 {
		eng, err := dcer.NewEngine(d, rules, reg, dcer.EngineOptions{
			ShareIndexes: true,
			Metrics:      obs.Registry(),
		})
		if err != nil {
			log.Fatal(err)
		}
		eng.Run()
		classes = eng.Classes()
		if *verbose {
			st := eng.Stats()
			logg.Infof("valuations=%d matches=%d validated=%d rounds=%d",
				st.Valuations, st.MatchesFound, st.MLValidated, st.Rounds)
		}
	} else {
		popts := dcer.ParallelOptions{
			Workers: *workers,
			Metrics: obs.Registry(),
		}
		var res *dcer.ParallelResult
		var err error
		if *distributed {
			res, err = runDistributedMaster(d, rules, reg, popts, *dataDir, *rulesFile, *listen, *crashWorker)
		} else {
			res, err = dcer.MatchParallel(d, rules, reg, popts)
		}
		if err != nil {
			log.Fatal(err)
		}
		classes = res.Classes()
		if *verbose {
			logg.Infof("workers=%d supersteps=%d messages=%d deduped=%d recoveries=%d partition=%v build=%v er=%v sim=%v",
				*workers, res.Supersteps, res.MessagesRouted, res.MessagesDeduped,
				len(res.Recoveries), res.PartitionTime, res.BuildTime, res.ERTime, res.Timeline().Makespan())
			if *distributed {
				w := res.Wire
				logg.Infof("wire: out=%dB in=%dB frames=%d/%d encode=%v decode=%v dict=%d strings %dB (naive %dB)",
					w.BytesOut, w.BytesIn, w.FramesOut, w.FramesIn,
					time.Duration(w.EncodeNs), time.Duration(w.DecodeNs),
					w.DictStrings, w.DictBytes, w.NaiveSymBytes)
			}
		}
		if *timeline {
			fmt.Fprint(os.Stderr, res.Timeline().Gantt())
		}
	}

	sort.Slice(classes, func(i, j int) bool { return classes[i][0] < classes[j][0] })
	if *outFile != "" {
		if err := writeMatches(*outFile, d, classes); err != nil {
			log.Fatal(err)
		}
	}
	for _, class := range classes {
		sort.Slice(class, func(i, j int) bool { return class[i] < class[j] })
		for k, gid := range class {
			t := d.Tuple(gid)
			s := d.SchemaOf(t)
			if k > 0 {
				fmt.Print("  ==  ")
			}
			fmt.Printf("%s(%s)", s.Name, t.ID(s))
		}
		fmt.Println()
	}
}

// writeMatches persists the resolved entities as CSV: one row per member
// tuple, with an entity column numbering the equivalence classes.
func writeMatches(path string, d *dcer.Dataset, classes [][]dcer.TID) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := csv.NewWriter(f)
	if err := w.Write([]string{"entity", "relation", "id", "gid"}); err != nil {
		return err
	}
	for ei, class := range classes {
		for _, gid := range class {
			t := d.Tuple(gid)
			s := d.SchemaOf(t)
			if err := w.Write([]string{
				strconv.Itoa(ei), s.Name, t.ID(s).String(), strconv.Itoa(int(gid)),
			}); err != nil {
				return err
			}
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		return err
	}
	return f.Close()
}
