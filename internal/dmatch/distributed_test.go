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

// TestDistributedRecovery kills one worker after its first delta and
// checks the master recovers — reassigns the dead worker's blocks,
// rebuilds the survivors over the wire with replay — and still converges
// to the in-process Γ.
func TestDistributedRecovery(t *testing.T) {
	g, rules := tpchWorkload(t)
	want, err := dmatch.Run(g.D, rules, mlpred.DefaultRegistry(), dmatch.Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}

	const n = 3
	gm, rulesM := tpchWorkload(t)
	errs := make(chan error, n)
	dist, err := dmatch.RunDistributed(gm.D, rulesM, mlpred.DefaultRegistry(),
		dmatch.Options{Workers: n},
		dmatch.DistOptions{
			Spawn:            spawnLocalWorkers(t, map[int]int{1: 1}, errs),
			HeartbeatTimeout: 5 * time.Second,
		})
	if err != nil {
		t.Fatalf("distributed with crash: %v", err)
	}
	sawCrash := false
	for i := 0; i < n; i++ {
		if werr := <-errs; errors.Is(werr, dmatch.ErrInjectedCrash) {
			sawCrash = true
		} else if werr != nil {
			t.Fatalf("worker: %v", werr)
		}
	}
	if !sawCrash {
		t.Fatal("injected crash never fired")
	}
	if len(dist.Recoveries) == 0 {
		t.Fatal("worker died but no recovery was recorded")
	}
	rec := dist.Recoveries[0]
	if rec.Worker != 1 || rec.BlocksMoved == 0 || rec.WorkersRebuilt == 0 {
		t.Fatalf("recovery event %+v: want worker 1 with moved blocks and rebuilt survivors", rec)
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

// TestDistributedVersionMismatch: a worker built against another protocol
// version must be refused at the handshake — the run fails with the
// "protocol version" error, promptly — instead of being sent an Assign it
// would misparse.
func TestDistributedVersionMismatch(t *testing.T) {
	g, rules := tpchWorkload(t)
	spawn := func(worker int, addr string) error {
		go func() {
			conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
			if err != nil {
				return // the master already refused the other worker and closed
			}
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(10 * time.Second))
			hello := wire.Hello{
				Version: wire.Version + 1, Worker: worker,
				DatasetSize: g.D.Size(), IDSpace: g.D.Size(), Rules: len(rules),
			}
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
			t.Fatalf("got error %v, want the handshake's protocol version error", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("RunDistributed still running 20s after a worker of another protocol version connected")
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
