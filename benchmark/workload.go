package main

import (
	"crypto/sha256"
	"encoding/csv"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"dcer"
	"dcer/internal/chase"
	"dcer/internal/datagen"
	"dcer/internal/dmatch"
	"dcer/internal/eval"
	"dcer/internal/relation"
	"dcer/internal/rule"
)

type mode int

const (
	modeMatch  mode = iota // one engine: chase.New + Run
	modeDMatch             // in-process dmatch.Run, 2 workers
	modeDist               // dmatch.RunDistributed, 2 worker processes
	modeInsert             // Run over 75 %, InsertTuples for the rest
)

// workload is one set of inputs and the way the system is driven over them.
type workload struct {
	Name  string
	Kind  string // "tpch" or "tfacc"
	Scale float64
	Mode  mode
}

// dmatchWorkers is the worker count of the two DMatch workloads: the host
// has 2 cores.
const dmatchWorkers = 2

// insertBatches is how many InsertTuples calls the held-back quarter of
// tpch-insert arrives in.
const insertBatches = 16

// repTimeout bounds one repetition; exceeding it fails the operation.
const repTimeout = 60 * time.Second

// contentSeed is internal/datagen's seed on every workload. The -seed
// argument permutes rows instead, because the work TPCH content causes is
// bimodal in the generator's seed (README.md, "What the seed varies").
const contentSeed = 1

// The scales are set so that a repetition lasts 1-2.5 s on the 2-core host
// and a whole run stays under 30 s (see README.md, "Sizes").
var workloads = []workload{
	{Name: "tpch-match", Kind: "tpch", Scale: 6, Mode: modeMatch},
	{Name: "tpch-dmatch", Kind: "tpch", Scale: 6, Mode: modeDMatch},
	{Name: "tpch-dist", Kind: "tpch", Scale: 6, Mode: modeDist},
	{Name: "tfacc-collective", Kind: "tfacc", Scale: 0.7, Mode: modeMatch},
	{Name: "tpch-insert", Kind: "tpch", Scale: 6, Mode: modeInsert},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// inputs is what set-up leaves on disk for the repetitions, plus what the
// harness keeps in memory to check their outputs.
type inputs struct {
	root  string // everything below is inside; removed on clean-up
	full  string // CSV directory holding every tuple
	base  string // tpch-insert: the 75 % loaded before Run
	delta string // tpch-insert: the 25 % appended afterwards
	rules string // rule file
	out   string // where a repetition writes its entity-class CSV

	tuples int
	// keyGID numbers every "relation:id-value" key by the generator's tuple
	// id, so classes from any load order can be scored against truth.
	keyGID map[string]relation.TID
	truth  *eval.Truth
}

func tupleKey(d *relation.Dataset, t *relation.Tuple) string {
	s := d.SchemaOf(t)
	return s.Name + ":" + t.ID(s).String()
}

// generate builds the dataset and writes it under root as a CSV directory
// plus rule file, the form cmd/dmatch consumes. seed picks the order of
// every relation's rows, and with it the tuple-id numbering and the
// enumeration, index and insertion order.
func generate(w workload, seed int64, root string) (*inputs, error) {
	var g *datagen.Generated
	switch w.Kind {
	case "tpch":
		g = datagen.TPCH(datagen.TPCHOptions{Scale: w.Scale, Dup: 0.3, Seed: contentSeed})
	case "tfacc":
		g = datagen.TFACC(datagen.TFACCOptions{Scale: w.Scale, Dup: 0.3, Seed: contentSeed})
	default:
		return nil, fmt.Errorf("unknown dataset kind %q", w.Kind)
	}
	in := &inputs{
		root:   root,
		full:   filepath.Join(root, "data"),
		rules:  filepath.Join(root, "rules.mrl"),
		out:    filepath.Join(root, "out"),
		tuples: g.D.Size(),
		keyGID: make(map[string]relation.TID, g.D.Size()),
		truth:  eval.NewTruth(g.Truth),
	}
	for _, t := range g.D.Tuples() {
		k := tupleKey(g.D, t)
		if _, dup := in.keyGID[k]; dup {
			return nil, fmt.Errorf("generated dataset repeats key %s; the Γ digest needs unique keys", k)
		}
		in.keyGID[k] = t.GID
	}
	if err := os.MkdirAll(in.out, 0o755); err != nil {
		return nil, err
	}
	if err := relation.SaveDir(shuffleRows(g.D, seed, allRows), in.full); err != nil {
		return nil, err
	}
	if err := os.WriteFile(in.rules, []byte(g.RulesText), 0o644); err != nil {
		return nil, err
	}
	if w.Mode == modeInsert {
		// Every fourth generated row is held back, so that the inserted
		// quarter is the same tuples whatever order the seed puts them in.
		in.base, in.delta = filepath.Join(root, "base"), filepath.Join(root, "delta")
		heldBack := func(row int) bool { return row%4 == 3 }
		if err := relation.SaveDir(shuffleRows(g.D, seed, func(row int) bool { return !heldBack(row) }), in.base); err != nil {
			return nil, err
		}
		if err := relation.SaveDir(shuffleRows(g.D, seed, heldBack), in.delta); err != nil {
			return nil, err
		}
	}
	return in, nil
}

func allRows(int) bool { return true }

// shuffleRows copies the rows of d that keep selects, every relation's in
// an order permuted by seed. Every relation keeps its schema, so the
// result loads as a CSV directory even where a relation keeps no row.
func shuffleRows(d *relation.Dataset, seed int64, keep func(row int) bool) *relation.Dataset {
	rng := rand.New(rand.NewSource(seed))
	out := relation.NewDataset(d.DB)
	for ri, rel := range d.Relations {
		for _, row := range rng.Perm(len(rel.Tuples)) {
			if keep(row) {
				out.AppendUnchecked(ri, rel.Tuples[row].Values()...)
			}
		}
	}
	return out
}

// guarded holds the counts that must repeat exactly across a workload's
// repetitions; a mismatch fails the operation and names the count.
type guarded struct {
	Valuations     int64
	Supersteps     int64
	MessagesRouted int64
	PlacedTuples   int64
	F1             float64
}

func (g guarded) diff(o guarded) string {
	switch {
	case g.Valuations != o.Valuations:
		return fmt.Sprintf("chase.valuations %d != %d", g.Valuations, o.Valuations)
	case g.Supersteps != o.Supersteps:
		return fmt.Sprintf("dmatch.supersteps %d != %d", g.Supersteps, o.Supersteps)
	case g.MessagesRouted != o.MessagesRouted:
		return fmt.Sprintf("dmatch.messages_routed %d != %d", g.MessagesRouted, o.MessagesRouted)
	case g.PlacedTuples != o.PlacedTuples:
		return fmt.Sprintf("hypart.placed_tuples %d != %d", g.PlacedTuples, o.PlacedTuples)
	case g.F1 != o.F1:
		return fmt.Sprintf("f1 %v != %v", g.F1, o.F1)
	}
	return ""
}

// repResult is the outcome of one repetition (one operation).
type repResult struct {
	E2E, Resolve, CPU float64 // seconds
	Digest            string
	Guard             guarded
	// PeakRSSKB is the resident-set high-water mark over the repetition:
	// this process's VmHWM, max'ed with the workers' on tpch-dist.
	PeakRSSKB int64

	// Read from the public result structs after the clock has stopped.
	Stats       chase.Stats // the engine's, or the sum over DMatch workers
	Res         *dmatch.Result
	DatasetMem  int64
	Tuples      int
	WorkerLoadS float64 // tpch-dist: slowest worker's LoadDir + ParseRules
}

// runner drives one workload's repetitions over one set of inputs.
type runner struct {
	w   workload
	in  *inputs
	exe string // binary re-executed as the tpch-dist worker processes

	mu    sync.Mutex
	procs []*exec.Cmd // live worker processes, for clean-up on timeout
}

var errTimeout = errors.New("repetition exceeded " + repTimeout.String())

// repetition runs one operation under the time limit. After a timeout the
// abandoned goroutine cannot be stopped, so the caller must end the run.
func (r *runner) repetition(tr *tracer) (repResult, error) {
	type outcome struct {
		res repResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := r.operate(tr)
		done <- outcome{res, err}
	}()
	limit := time.NewTimer(repTimeout)
	defer limit.Stop()
	select {
	case o := <-done:
		return o.res, o.err
	case <-limit.C:
		r.killWorkers()
		return repResult{}, errTimeout
	}
}

func (r *runner) killWorkers() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, p := range r.procs {
		_ = p.Process.Kill() // already exited is fine
	}
}

// operate is CSV directory + rule file in, entity-class CSV out: what
// `cmd/dmatch -data -rules -out` does, through the same public functions.
func (r *runner) operate(tr *tracer) (out repResult, err error) {
	resetPeakRSS()
	root := tr.start("repetition", "trace", -1)
	cpu0, t0 := cpuSeconds(), time.Now()

	dataDir := r.in.full
	if r.w.Mode == modeInsert {
		dataDir = r.in.base
	}
	s := tr.start("relation.LoadDir", "relation", root)
	d, err := relation.LoadDir(dataDir)
	tr.end(s)
	if err != nil {
		return out, err
	}
	var delta *relation.Dataset
	if r.w.Mode == modeInsert {
		s = tr.start("relation.LoadDir(delta)", "relation", root)
		delta, err = relation.LoadDir(r.in.delta)
		tr.end(s)
		if err != nil {
			return out, err
		}
	}
	s = tr.start("dcer.ParseRules", "rule", root)
	rules, err := loadRules(r.in.rules, d)
	tr.end(s)
	if err != nil {
		return out, err
	}
	reg := dcer.DefaultClassifiers()

	var classes [][]relation.TID
	tResolve := time.Now()
	switch r.w.Mode {
	case modeMatch, modeInsert:
		var eng *chase.Engine
		eng, err = r.chaseRun(tr, root, d, rules, reg)
		if err != nil {
			return out, err
		}
		if r.w.Mode == modeInsert {
			tResolve = time.Now() // the base fixpoint counts in e2e_s only
			if err = r.insertAll(tr, root, d, delta, eng); err != nil {
				return out, err
			}
		}
		s = tr.start("Engine.Classes", "chase", root)
		classes = eng.Classes()
		tr.end(s)
		out.Stats = eng.Stats()
	case modeDMatch, modeDist:
		opts := dmatch.Options{Workers: dmatchWorkers, RebalanceSkew: -1}
		s = tr.start("dmatch.Run", "dmatch", root)
		if r.w.Mode == modeDist {
			out.Res, err = r.runDistributed(d, rules, reg, opts, &out)
		} else {
			out.Res, err = dmatch.Run(d, rules, reg, opts)
		}
		tr.end(s)
		if err != nil {
			return out, err
		}
		// HyPart and the BSP loop run inside the one public call; their
		// shares come from the result struct.
		tr.derived("hypart.Partition", "hypart", s, 0, out.Res.PartitionTime)
		tr.derived("dmatch.supersteps", "dmatch", s, out.Res.PartitionTime, out.Res.ERTime)
		s = tr.start("Result.Classes", "dmatch", root)
		classes = out.Res.Classes()
		tr.end(s)
		for _, ws := range out.Res.WorkerStats {
			addStats(&out.Stats, ws)
		}
	}
	out.Resolve = time.Since(tResolve).Seconds()

	s = tr.start("emit", "relation", root)
	err = writeMatches(filepath.Join(r.in.out, "matches.csv"), d, classes)
	tr.end(s)
	if err != nil {
		return out, err
	}
	out.E2E = time.Since(t0).Seconds()
	out.CPU = cpuSeconds() - cpu0
	tr.end(root)
	hwm, err := peakRSSKB()
	if err != nil {
		return out, err
	}
	out.PeakRSSKB = max(out.PeakRSSKB, hwm)

	// The clock has stopped; the rest checks the output.
	keys := classKeys(d, classes)
	out.Digest = digestClasses(keys)
	out.Guard.F1, err = r.in.f1(keys)
	if err != nil {
		return out, err
	}
	out.Guard.Valuations = out.Stats.Valuations
	if res := out.Res; res != nil {
		if n := len(res.Rebalances); n != 0 {
			return out, fmt.Errorf("dmatch.rebalances = %d with RebalanceSkew pinned off", n)
		}
		if n := len(res.Recoveries); n != 0 {
			return out, fmt.Errorf("dmatch.recoveries = %d, a worker died", n)
		}
		out.Guard.Supersteps = int64(res.Supersteps)
		out.Guard.MessagesRouted = res.MessagesRouted
		out.Guard.PlacedTuples = res.PartitionStats.PlacedTuples
	}
	out.DatasetMem, out.Tuples = d.MemBytes(), d.Size()
	return out, nil
}

func loadRules(path string, d *relation.Dataset) ([]*rule.Rule, error) {
	text, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return dcer.ParseRules(string(text), d.DB)
}

// chaseRun is dcer.Match with a span around each of its two calls.
func (r *runner) chaseRun(tr *tracer, parent int, d *relation.Dataset, rules []*rule.Rule, reg *dcer.ClassifierRegistry) (*chase.Engine, error) {
	s := tr.start("chase.New", "chase", parent)
	eng, err := chase.New(d, rules, reg, chase.Options{ShareIndexes: true})
	tr.end(s)
	if err != nil {
		return nil, err
	}
	s = tr.start("Engine.Run", "chase", parent)
	eng.Run()
	tr.end(s)
	return eng, nil
}

// insertAll appends delta's tuples to d in insertBatches equal batches and
// hands each batch to Engine.InsertTuples.
func (r *runner) insertAll(tr *tracer, parent int, d, delta *relation.Dataset, eng *chase.Engine) error {
	ts := delta.Tuples()
	for b := 0; b < insertBatches; b++ {
		chunk := ts[b*len(ts)/insertBatches : (b+1)*len(ts)/insertBatches]
		batch := make([]*relation.Tuple, 0, len(chunk))
		s := tr.start("Dataset.Append", "relation", parent)
		for _, t := range chunk {
			nt, err := d.Append(delta.SchemaOf(t).Name, t.Values()...)
			if err != nil {
				return err
			}
			batch = append(batch, nt)
		}
		tr.end(s)
		s = tr.start("Engine.InsertTuples", "chase", parent)
		_, err := eng.InsertTuples(batch)
		tr.end(s)
		if err != nil {
			return err
		}
	}
	return nil
}

// workerReport is what a tpch-dist worker process leaves for the master.
type workerReport struct {
	LoadS float64 `json:"load_s"`
}

// runDistributed spawns the worker processes as re-executions of this
// binary, each loading the same CSV directory as `cmd/dmatch -worker`
// does, and reaps them before returning.
func (r *runner) runDistributed(d *relation.Dataset, rules []*rule.Rule, reg *dcer.ClassifierRegistry, opts dmatch.Options, out *repResult) (*dmatch.Result, error) {
	var procs []*exec.Cmd
	reportPath := func(w int) string {
		return filepath.Join(r.in.out, "worker-"+strconv.Itoa(w)+".json")
	}
	spawn := func(w int, addr string) error {
		cmd := exec.Command(r.exe)
		cmd.Env = append(os.Environ(),
			workerEnv+"="+strconv.Itoa(w),
			workerEnv+"_ADDR="+addr,
			workerEnv+"_DATA="+r.in.full,
			workerEnv+"_RULES="+r.in.rules,
			workerEnv+"_REPORT="+reportPath(w),
			"GOMAXPROCS=1")
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return err
		}
		procs = append(procs, cmd)
		r.mu.Lock()
		r.procs = append(r.procs, cmd)
		r.mu.Unlock()
		return nil
	}
	res, err := dmatch.RunDistributed(d, rules, reg, opts, dmatch.DistOptions{Spawn: spawn})
	if err != nil {
		r.killWorkers()
	}
	for w, p := range procs {
		werr := p.Wait()
		if err == nil && werr != nil {
			err = fmt.Errorf("worker %d: %w", w, werr)
		}
		if ru, ok := p.ProcessState.SysUsage().(*syscall.Rusage); ok {
			out.PeakRSSKB = max(out.PeakRSSKB, ru.Maxrss)
		}
	}
	r.mu.Lock()
	r.procs = nil
	r.mu.Unlock()
	if err != nil {
		return nil, err
	}
	for w := range procs {
		var rep workerReport
		data, err := os.ReadFile(reportPath(w))
		if err == nil {
			err = json.Unmarshal(data, &rep)
		}
		if err != nil {
			return nil, fmt.Errorf("worker %d report: %w", w, err)
		}
		out.WorkerLoadS = max(out.WorkerLoadS, rep.LoadS)
	}
	return res, nil
}

// workerEnv switches a re-execution of this binary (or of the test
// binary) into a tpch-dist worker process; its value is the worker id.
const workerEnv = "DCER_BENCHMARK_WORKER"

// workerMain is `cmd/dmatch -worker`: load the CSV directory and the rule
// file, then serve supersteps until the master says done.
func workerMain() error {
	id, err := strconv.Atoi(os.Getenv(workerEnv))
	if err != nil {
		return fmt.Errorf("bad %s: %w", workerEnv, err)
	}
	t0 := time.Now()
	d, err := relation.LoadDir(os.Getenv(workerEnv + "_DATA"))
	if err != nil {
		return err
	}
	rules, err := loadRules(os.Getenv(workerEnv+"_RULES"), d)
	if err != nil {
		return err
	}
	rep, err := json.Marshal(workerReport{LoadS: time.Since(t0).Seconds()})
	if err != nil {
		return err
	}
	if err := os.WriteFile(os.Getenv(workerEnv+"_REPORT"), rep, 0o644); err != nil {
		return err
	}
	return dmatch.RunWorker(os.Getenv(workerEnv+"_ADDR"), d, rules, dcer.DefaultClassifiers(), dmatch.WorkerOptions{Worker: id})
}

// addStats folds one worker engine's counters into a sum.
func addStats(sum *chase.Stats, s chase.Stats) {
	sum.Valuations += s.Valuations
	sum.Extensions += s.Extensions
	sum.PlanPreds += s.PlanPreds
	sum.MatchesFound += s.MatchesFound
	sum.MLValidated += s.MLValidated
	sum.DepsRecorded += s.DepsRecorded
	sum.DepsFired += s.DepsFired
	sum.DepsDropped += s.DepsDropped
	sum.Rounds += s.Rounds
	sum.IndexBuilds += s.IndexBuilds
	sum.MLCacheHits += s.MLCacheHits
	sum.MLCacheMiss += s.MLCacheMiss
	sum.FeatHits += s.FeatHits
	sum.FeatMisses += s.FeatMisses
	sum.FeatEntries += s.FeatEntries
}

// writeMatches writes the resolved entities the way cmd/dmatch -out does:
// one row per member tuple, an entity column numbering the classes.
func writeMatches(path string, d *relation.Dataset, classes [][]relation.TID) error {
	for _, c := range classes {
		sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i][0] < classes[j][0] })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close() // the success path checks Close below
	w := csv.NewWriter(f)
	if err := w.Write([]string{"entity", "relation", "id", "gid"}); err != nil {
		return err
	}
	for ei, class := range classes {
		for _, gid := range class {
			t := d.Tuple(gid)
			s := d.SchemaOf(t)
			if err := w.Write([]string{strconv.Itoa(ei), s.Name, t.ID(s).String(), strconv.Itoa(int(gid))}); err != nil {
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

// classKeys renders each class as its sorted "relation:id-value" members
// and sorts the classes, which makes the result independent of tuple-id
// numbering (tpch-insert appends in another order than tpch-match loads).
func classKeys(d *relation.Dataset, classes [][]relation.TID) [][]string {
	out := make([][]string, len(classes))
	for i, c := range classes {
		ks := make([]string, len(c))
		for j, gid := range c {
			ks[j] = tupleKey(d, d.Tuple(gid))
		}
		sort.Strings(ks)
		out[i] = ks
	}
	sort.Slice(out, func(a, b int) bool { return out[a][0] < out[b][0] })
	return out
}

func digestClasses(keys [][]string) string {
	h := sha256.New()
	for _, c := range keys {
		h.Write([]byte(strings.Join(c, "\x1f")))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// f1 scores classes against the planted truth (eval.EvaluateClasses) after
// translating keys back to the generator's tuple ids.
func (in *inputs) f1(keys [][]string) (float64, error) {
	classes := make([][]relation.TID, len(keys))
	for i, c := range keys {
		ids := make([]relation.TID, len(c))
		for j, k := range c {
			gid, ok := in.keyGID[k]
			if !ok {
				return 0, fmt.Errorf("output names tuple %s, which the input does not hold", k)
			}
			ids[j] = gid
		}
		classes[i] = ids
	}
	return eval.EvaluateClasses(classes, in.truth).F1, nil
}
