package main

import (
	"context"
	"errors"
	"fmt"
	"os"
)

// runSelfcheck runs the full set twice on this binary, the second time in
// reverse workload order, each run in a process of its own as the driver
// makes it. It prints each end-to-end metric of both runs with their
// relative difference next to the bound, and fails when a difference
// exceeds its bound, an operation failed, or the two runs of a workload
// reached different Γ.
func runSelfcheck(ctx context.Context, base config) error {
	var sets [2]map[string]*report
	for set := range sets {
		sets[set] = make(map[string]*report)
		for i := range workloads {
			w := workloads[i]
			if set == 1 {
				w = workloads[len(workloads)-1-i]
			}
			cfg := base
			cfg.W = w
			rep, err := runInChild(ctx, cfg)
			if err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "set %d: %s done\n", set+1, w.Name)
			sets[set][w.Name] = rep
		}
	}
	ok := true
	fmt.Printf("%-18s %-12s %12s %12s %9s %7s\n", "workload", "metric", "first", "second", "diff", "bound")
	for _, w := range workloads {
		a, b := sets[0][w.Name], sets[1][w.Name]
		if !a.correct() || !b.correct() || a.Digest != b.Digest {
			fmt.Printf("%-18s failed operations (%d, %d) or Γ digests differ (%s, %s)\n", w.Name, a.Failed, b.Failed, a.Digest, b.Digest)
			ok = false
		}
		for _, def := range endToEnd {
			x, y := a.EndToEnd[def.Name].Value, b.EndToEnd[def.Name].Value
			diff := ratio(y-x, x)
			if diff < 0 {
				diff = -diff
			}
			verdict := ""
			if diff > def.Bound {
				verdict, ok = "  EXCEEDS", false
			}
			fmt.Printf("%-18s %-12s %12.6g %12.6g %8.2f%% %6.1f%%%s\n", w.Name, def.Name, x, y, 100*diff, 100*def.Bound, verdict)
		}
	}
	if !ok {
		return errors.New("selfcheck: the two runs disagree by more than the bounds allow")
	}
	return nil
}
