package dmatch_test

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"dcer/internal/chase"
	"dcer/internal/datagen"
	"dcer/internal/dmatch"
	"dcer/internal/mlpred"
	"dcer/internal/relation"
	"dcer/internal/rule"
	"dcer/internal/wire"
)

// factSetSignature canonicalizes a fact set (order-insensitive): the Γ
// byte-identity the distributed mode promises is over the *set* of
// matches and validated facts (and therefore over the -out class CSV),
// not over the master's fold order.
func factSetSignature(facts []chase.Fact) string {
	strsOut := make([]string, len(facts))
	for i, f := range facts {
		strsOut[i] = fmt.Sprintf("%d:%d:%d:%s", f.Kind, f.A, f.B, f.Model)
	}
	sort.Strings(strsOut)
	return strings.Join(strsOut, ";")
}

// tpchWorkload regenerates the test workload from its seed — the stand-in
// for each process loading the same dataset directory from disk.
func tpchWorkload(t *testing.T) (*datagen.Generated, []*rule.Rule) {
	t.Helper()
	g := datagen.TPCH(datagen.TPCHOptions{Scale: 0.04, Dup: 0.4, Seed: 7})
	rules, err := g.Rules()
	if err != nil {
		t.Fatal(err)
	}
	return g, rules
}

// spawnLocalWorkers returns a Spawn hook that runs each worker as a
// goroutine with its own regenerated dataset, rules, and registry — the
// separate-process data model without the process cost. crashAfter maps
// worker id to an injected CrashAfter value (0 = none).
func spawnLocalWorkers(t *testing.T, crashAfter map[int]int, errs chan error) func(int, string) error {
	t.Helper()
	return spawnWorkersOver(func() (*relation.Dataset, []*rule.Rule, error) {
		g := datagen.TPCH(datagen.TPCHOptions{Scale: 0.04, Dup: 0.4, Seed: 7})
		rules, err := g.Rules()
		return g.D, rules, err
	}, crashAfter, errs)
}

// spawnWorkersOver is spawnLocalWorkers over any inputs: every worker
// goroutine calls load for its own copy.
func spawnWorkersOver(load func() (*relation.Dataset, []*rule.Rule, error), crashAfter map[int]int, errs chan error) func(int, string) error {
	return func(worker int, addr string) error {
		go func() {
			d, rules, err := load()
			if err != nil {
				errs <- err
				return
			}
			errs <- dmatch.RunWorker(addr, d, rules, mlpred.DefaultRegistry(), dmatch.WorkerOptions{
				Worker:            worker,
				HeartbeatInterval: 100 * time.Millisecond,
				CrashAfter:        crashAfter[worker],
			})
		}()
		return nil
	}
}

// TestDistributedEqualsInProcess is the tentpole oracle: at w ∈ {2,4,8},
// the distributed run over real TCP connections produces a Γ identical to
// the in-process run — same match set, same validated set, same classes.
func TestDistributedEqualsInProcess(t *testing.T) {
	g, rules := tpchWorkload(t)
	for _, n := range []int{2, 4, 8} {
		inproc, err := dmatch.Run(g.D, rules, mlpred.DefaultRegistry(), dmatch.Options{Workers: n})
		if err != nil {
			t.Fatalf("n=%d in-process: %v", n, err)
		}

		gm, rulesM := tpchWorkload(t)
		errs := make(chan error, n)
		dist, err := dmatch.RunDistributed(gm.D, rulesM, mlpred.DefaultRegistry(),
			dmatch.Options{Workers: n},
			dmatch.DistOptions{Spawn: spawnLocalWorkers(t, nil, errs)})
		if err != nil {
			t.Fatalf("n=%d distributed: %v", n, err)
		}
		for i := 0; i < n; i++ {
			if werr := <-errs; werr != nil {
				t.Fatalf("n=%d worker: %v", n, werr)
			}
		}

		if got, want := factSetSignature(dist.Matches), factSetSignature(inproc.Matches); got != want {
			t.Errorf("n=%d: distributed match set diverges from in-process", n)
		}
		if got, want := factSetSignature(dist.Validated), factSetSignature(inproc.Validated); got != want {
			t.Errorf("n=%d: distributed validated set diverges from in-process", n)
		}
		if got, want := classSignature(dist.Classes()), classSignature(inproc.Classes()); got != want {
			t.Errorf("n=%d: distributed classes diverge from in-process", n)
		}
		if dist.Wire.BytesOut == 0 || dist.Wire.BytesIn == 0 || dist.Wire.FramesOut == 0 {
			t.Errorf("n=%d: no wire traffic measured: %+v", n, dist.Wire)
		}
		var stepBytes int64
		for _, ss := range dist.Timeline().Steps {
			stepBytes += ss.BytesOnWire
		}
		if stepBytes == 0 {
			t.Errorf("n=%d: timeline recorded no per-superstep wire bytes", n)
		}
	}
}

// TestDistributedRecovery kills workers after given deltas at n = 3 and
// checks the master recovers — hands each dead worker's blocks to the
// survivors, rebuilds those that adopt one over the wire with replay —
// and still converges to the in-process Γ. After its recovery a dead slot
// stays idle. The survivors' WorkerStats keep the work of the engines a
// rebuild retired, so the run sums at least the crash-free valuations.
// Two deaths at different supersteps recover twice, the second onto the
// one survivor, which the first recovery had already rebuilt.
func TestDistributedRecovery(t *testing.T) {
	const n = 3
	g, rules := tpchWorkload(t)
	want, err := dmatch.Run(g.D, rules, mlpred.DefaultRegistry(), dmatch.Options{Workers: n})
	if err != nil {
		t.Fatal(err)
	}
	valuations := func(r *dmatch.Result) (sum int64) {
		for _, st := range r.WorkerStats {
			sum += st.Valuations
		}
		return sum
	}
	for _, tc := range []struct {
		name  string
		crash map[int]int // worker → CrashAfter
		dead  []int       // the recoveries' workers, in order
	}{
		{"after_1st_delta", map[int]int{1: 1}, []int{1}},
		{"after_2nd_delta", map[int]int{1: 2}, []int{1}},
		{"two_deaths", map[int]int{1: 1, 2: 3}, []int{1, 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dist, err := runTCP(t, tpchSmall, dmatch.Options{Workers: n}, tc.crash)
			if err != nil {
				t.Fatalf("distributed with crash: %v", err)
			}
			if len(dist.Recoveries) != len(tc.dead) {
				t.Fatalf("recoveries %+v, want %d", dist.Recoveries, len(tc.dead))
			}
			for i, rec := range dist.Recoveries {
				if rec.Worker != tc.dead[i] || rec.BlocksMoved == 0 || rec.WorkersRebuilt == 0 {
					t.Errorf("recovery %+v: want worker %d with moved blocks and rebuilt survivors", rec, tc.dead[i])
				}
				if i > 0 && rec.Step <= dist.Recoveries[i-1].Step {
					t.Errorf("recoveries %+v share a superstep", dist.Recoveries)
				}
				for _, ss := range dist.Timeline().Steps[rec.Step+1:] {
					if w := ss.Workers[rec.Worker]; w.MsgsIn != 0 || w.FactsOut != 0 {
						t.Errorf("dead worker %d active in superstep %d: %+v", rec.Worker, ss.Step, w)
					}
				}
			}
			if len(tc.dead) == 2 && dist.Recoveries[0].WorkersRebuilt != n-1 {
				t.Errorf("first recovery %+v did not rebuild worker 0, which the second lands on", dist.Recoveries[0])
			}
			if got := factSetSignature(dist.Matches); got != factSetSignature(want.Matches) {
				t.Error("post-recovery match set diverges from in-process")
			}
			if got := factSetSignature(dist.Validated); got != factSetSignature(want.Validated) {
				t.Error("post-recovery validated set diverges from in-process")
			}
			if classSignature(dist.Classes()) != classSignature(want.Classes()) {
				t.Error("post-recovery classes diverge from in-process")
			}
			if got, floor := valuations(dist), valuations(want); got < floor {
				t.Errorf("summed Valuations %d after recovery, below the crash-free %d: retired engines' work was dropped", got, floor)
			}
		})
	}
}

// TestDistributedAllWorkersDead: when every worker dies the run must fail
// with an error, not hang.
func TestDistributedAllWorkersDead(t *testing.T) {
	g, rules := tpchWorkload(t)
	errs := make(chan error, 2)
	_, err := dmatch.RunDistributed(g.D, rules, mlpred.DefaultRegistry(),
		dmatch.Options{Workers: 2},
		dmatch.DistOptions{
			Spawn:            spawnLocalWorkers(t, map[int]int{0: 1, 1: 1}, errs),
			HeartbeatTimeout: 5 * time.Second,
		})
	if err == nil {
		t.Fatal("all workers dead but the run reported success")
	}
	if !strings.Contains(err.Error(), "workers died") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestDistributedFingerprintMismatch: a worker that loaded different data
// must be rejected at the handshake.
func TestDistributedFingerprintMismatch(t *testing.T) {
	g, rules := tpchWorkload(t)
	errs := make(chan error, 2)
	spawn := func(worker int, addr string) error {
		go func() {
			// Worker 1 loads a differently-sized dataset.
			scale := 0.04
			if worker == 1 {
				scale = 0.02
			}
			gw := datagen.TPCH(datagen.TPCHOptions{Scale: scale, Dup: 0.4, Seed: 7})
			rw, err := gw.Rules()
			if err != nil {
				errs <- err
				return
			}
			errs <- dmatch.RunWorker(addr, gw.D, rw, mlpred.DefaultRegistry(), dmatch.WorkerOptions{Worker: worker})
		}()
		return nil
	}
	_, err := dmatch.RunDistributed(g.D, rules, mlpred.DefaultRegistry(),
		dmatch.Options{Workers: 2},
		dmatch.DistOptions{Spawn: spawn, AcceptTimeout: 10 * time.Second})
	if err == nil {
		t.Fatal("fingerprint mismatch accepted")
	}
	if !strings.Contains(err.Error(), "fingerprint") && !strings.Contains(err.Error(), "handshake") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestDistributedFingerprintCoversContent: a worker whose inputs match the
// master's in size and rule count but not in content must be refused at
// the handshake with the fingerprint error — one whose dataset has one
// string value changed, and one with one rule changed — while a worker
// whose dataset is a tuple-by-tuple copy of the master's is accepted.
func TestDistributedFingerprintCoversContent(t *testing.T) {
	g, rules := tpchWorkload(t)
	// copyData rebuilds d tuple by tuple, in GID order, with change
	// applied to each tuple's values.
	copyData := func(d *relation.Dataset, change func(gid relation.TID, vals []relation.Value)) *relation.Dataset {
		cp := relation.NewDataset(d.DB)
		for _, tu := range d.Tuples() {
			vals := tu.Values()
			change(tu.GID, vals)
			cp.MustAppend(d.SchemaOf(tu).Name, vals...)
		}
		return cp
	}
	target := relation.TID(g.D.Size() / 2)
	for _, tc := range []struct {
		name string
		// load gives worker 1 its inputs from a fresh generation.
		load   func(gw *datagen.Generated, rw []*rule.Rule) (*relation.Dataset, []*rule.Rule, error)
		refuse bool
	}{
		{"copy", func(gw *datagen.Generated, rw []*rule.Rule) (*relation.Dataset, []*rule.Rule, error) {
			return copyData(gw.D, func(relation.TID, []relation.Value) {}), rw, nil
		}, false},
		{"value", func(gw *datagen.Generated, rw []*rule.Rule) (*relation.Dataset, []*rule.Rule, error) {
			changed := false
			d := copyData(gw.D, func(gid relation.TID, vals []relation.Value) {
				for a, v := range vals {
					if gid >= target && !changed && v.Kind == relation.TypeString {
						vals[a] = relation.S(v.Str + "?")
						changed = true
					}
				}
			})
			if !changed {
				return nil, nil, errors.New("no string value to change")
			}
			return d, rw, nil
		}, true},
		{"rule", func(gw *datagen.Generated, _ []*rule.Rule) (*relation.Dataset, []*rule.Rule, error) {
			text := strings.Replace(gw.RulesText, "lev075(n.nname, m.nname)", "lev080(n.nname, m.nname)", 1)
			if text == gw.RulesText {
				return nil, nil, errors.New("no rule text to change")
			}
			gw.RulesText = text
			rw, err := gw.Rules()
			return gw.D, rw, err
		}, true},
	} {
		errs := make(chan error, 2)
		spawn := func(worker int, addr string) error {
			return spawnWorkersOver(func() (*relation.Dataset, []*rule.Rule, error) {
				gw := datagen.TPCH(datagen.TPCHOptions{Scale: 0.04, Dup: 0.4, Seed: 7})
				rw, err := gw.Rules()
				if err != nil || worker == 0 {
					return gw.D, rw, err
				}
				return tc.load(gw, rw)
			}, nil, errs)(worker, addr)
		}
		res, err := dmatch.RunDistributed(g.D, rules, mlpred.DefaultRegistry(),
			dmatch.Options{Workers: 2},
			dmatch.DistOptions{Spawn: spawn, AcceptTimeout: 10 * time.Second})
		switch {
		case !tc.refuse && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.refuse && err == nil:
			t.Errorf("%s: accepted, returned %d classes", tc.name, len(res.Classes()))
		case tc.refuse && !strings.Contains(err.Error(), "fingerprint"):
			t.Errorf("%s: got error %v, want the handshake's fingerprint error", tc.name, err)
		}
		if !tc.refuse {
			for range 2 {
				if werr := <-errs; werr != nil {
					t.Errorf("%s: worker: %v", tc.name, werr)
				}
			}
		}
	}
}

// TestDistributedVersionMismatch: a worker built against another protocol
// version must be refused at the handshake — the run fails with the
// "protocol version" error, promptly — instead of being sent an Assign it
// would misparse: version 5, whose Assign carried TID lists, and the next.
func TestDistributedVersionMismatch(t *testing.T) {
	g, rules := tpchWorkload(t)
	for _, version := range []uint32{5, wire.Version + 1} {
		spawn := func(worker int, addr string) error {
			go func() {
				conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
				if err != nil {
					return // the master already refused the other worker and closed
				}
				defer conn.Close()
				conn.SetDeadline(time.Now().Add(10 * time.Second))
				hello := wire.Hello{Version: version, Worker: worker, DatasetSize: g.D.Size()}
				if wire.NewEncoder(conn, nil).Hello(hello) == nil {
					io.Copy(io.Discard, conn) // until the master hangs up
				}
			}()
			return nil
		}
		done := make(chan error, 1)
		go func() {
			_, err := dmatch.RunDistributed(g.D, rules, mlpred.DefaultRegistry(),
				dmatch.Options{Workers: 2},
				dmatch.DistOptions{Spawn: spawn, AcceptTimeout: 10 * time.Second})
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), "protocol version") {
				t.Fatalf("version %d: got error %v, want the handshake's protocol version error", version, err)
			}
		case <-time.After(20 * time.Second):
			t.Fatalf("RunDistributed still running 20s after a worker of protocol version %d connected", version)
		}
	}
}

// TestDistributedOSProcesses re-executes the test binary as real worker
// processes (the full tentpole path: exec, TCP, separate address spaces)
// and checks Γ against the in-process run.
func TestDistributedOSProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("process spawning in -short mode")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Skip("cannot locate test binary")
	}
	g, rules := tpchWorkload(t)
	want, err := dmatch.Run(g.D, rules, mlpred.DefaultRegistry(), dmatch.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	gm, rulesM := tpchWorkload(t)
	var cmds []*exec.Cmd
	spawn := func(worker int, addr string) error {
		cmd := exec.Command(exe, "-test.run", "TestDistributedWorkerHelper")
		cmd.Env = append(os.Environ(),
			"DMATCH_WORKER_HELPER=1",
			"DMATCH_ADDR="+addr,
			"DMATCH_WORKER_ID="+strconv.Itoa(worker))
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return err
		}
		cmds = append(cmds, cmd)
		return nil
	}
	dist, err := dmatch.RunDistributed(gm.D, rulesM, mlpred.DefaultRegistry(),
		dmatch.Options{Workers: 2},
		dmatch.DistOptions{Spawn: spawn})
	for _, cmd := range cmds {
		cmd.Wait()
	}
	if err != nil {
		t.Fatalf("distributed over OS processes: %v", err)
	}
	if classSignature(dist.Classes()) != classSignature(want.Classes()) {
		t.Error("OS-process distributed classes diverge from in-process")
	}
	if factSetSignature(dist.Matches) != factSetSignature(want.Matches) {
		t.Error("OS-process distributed match set diverges from in-process")
	}
}

// TestDistributedWorkerHelper is not a test: it is the worker half of
// TestDistributedOSProcesses, entered only when re-executed with the
// helper environment set.
func TestDistributedWorkerHelper(t *testing.T) {
	if os.Getenv("DMATCH_WORKER_HELPER") != "1" {
		t.Skip("helper entry point")
	}
	addr := os.Getenv("DMATCH_ADDR")
	id, err := strconv.Atoi(os.Getenv("DMATCH_WORKER_ID"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bad DMATCH_WORKER_ID:", err)
		os.Exit(2)
	}
	g := datagen.TPCH(datagen.TPCHOptions{Scale: 0.04, Dup: 0.4, Seed: 7})
	rules, err := g.Rules()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if err := dmatch.RunWorker(addr, g.D, rules, mlpred.DefaultRegistry(), dmatch.WorkerOptions{Worker: id}); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(0)
}

// TestDistributedPartitionErrorClosesListener: workers are spawned before
// HyPart runs, so when Partition then fails (1024 workers put n² past the
// block-key packing bound) the master must still close its listener —
// the already-spawned workers see a refused dial or EOF and exit instead
// of waiting for an assignment that never comes.
func TestDistributedPartitionErrorClosesListener(t *testing.T) {
	g, rules := tpchWorkload(t)
	var addr string
	_, err := dmatch.RunDistributed(g.D, rules, mlpred.DefaultRegistry(),
		dmatch.Options{Workers: 1024},
		dmatch.DistOptions{Spawn: func(_ int, a string) error { addr = a; return nil }})
	if err == nil || !strings.Contains(err.Error(), "virtual blocks") {
		t.Fatalf("got error %v, want HyPart's block-key packing error", err)
	}
	if conn, derr := net.DialTimeout("tcp", addr, time.Second); derr == nil {
		conn.Close()
		t.Fatalf("master listener %s still accepts connections after the failed run", addr)
	}
}
