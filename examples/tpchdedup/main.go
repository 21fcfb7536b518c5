// TPC-H dedup: the multi-level recursion case of the paper's Exp-1(5).
//
// The TPC-H-shaped generator plants duplicate chains that mirror the
// paper's "Argenztina" example: a misspelled nation, a duplicate customer
// referencing it, duplicate orders placed by that customer, and duplicate
// line items under those orders. Recovering the line items takes FOUR
// rounds of recursion: nation -> customer -> order -> lineitem. The
// program runs DMatch in parallel, reports accuracy per recursion level,
// and prints one full deduction chain. Run with:
//
//	go run ./examples/tpchdedup
package main

import (
	"fmt"
	"log"
	"strings"

	"dcer"
	"dcer/internal/datagen"
)

func main() {
	g := datagen.TPCH(datagen.TPCHOptions{Scale: 0.15, Dup: 0.3, Seed: 42})
	rules, err := g.Rules()
	if err != nil {
		log.Fatal(err)
	}
	res, err := dcer.MatchParallel(g.D, rules, dcer.DefaultClassifiers(),
		dcer.ParallelOptions{Workers: 8})
	if err != nil {
		log.Fatal(err)
	}

	truth := dcer.NewTruth(g.Truth)
	m := dcer.EvaluateClasses(res.Classes(), truth)
	fmt.Printf("TPC-H dedup: |D|=%d tuples, %d planted duplicate pairs\n", g.D.Size(), len(g.Truth))
	fmt.Printf("DMatch (8 workers): %s\n", m)
	fmt.Printf("supersteps=%d messages=%d partition=%v build=%v er=%v\n\n",
		res.Supersteps, res.MessagesRouted, res.PartitionTime, res.BuildTime, res.ERTime)

	// Per-relation recall: deeper relations need more recursion.
	fmt.Println("Recall by recursion depth:")
	byRel := map[string][2]int{} // relation -> (recovered, total)
	for _, p := range g.Truth {
		t := g.D.Tuple(p[0])
		name := g.D.SchemaOf(t).Name
		c := byRel[name]
		c[1]++
		if res.Same(p[0], p[1]) {
			c[0]++
		}
		byRel[name] = c
	}
	for _, name := range []string{"nation", "supplier", "customer", "part", "orders", "lineitem"} {
		c, ok := byRel[name]
		if !ok {
			continue
		}
		depth := map[string]int{"nation": 1, "supplier": 1, "customer": 2, "part": 2, "orders": 3, "lineitem": 4}[name]
		fmt.Printf("  level %d %-9s %4d/%-4d (%.1f%%)\n", depth, name, c[0], c[1], 100*float64(c[0])/float64(c[1]))
	}

	// Print one full 4-level chain: a recovered duplicate line item and
	// the matches that had to exist first.
	fmt.Println("\nOne recovered deep chain (lineitem -> order -> customer -> nation):")
	for _, p := range g.Truth {
		t := g.D.Tuple(p[0])
		if g.D.SchemaOf(t).Name != "lineitem" || !res.Same(p[0], p[1]) {
			continue
		}
		a, b := g.D.Tuple(p[0]), g.D.Tuple(p[1])
		fmt.Printf("  lineitem %s == %s\n", a.Val(0).Str, b.Val(0).Str)
		ok1, ok2 := a.Val(1).Str, b.Val(1).Str
		fmt.Printf("  <- orders  %s == %s (same totalprice/date, matched customers)\n", ok1, ok2)
		cust1, cust2 := findOrderCust(g.D, ok1), findOrderCust(g.D, ok2)
		fmt.Printf("  <- customer %s == %s (same phone, ML-similar names, matched nations)\n", cust1[0], cust2[0])
		fmt.Printf("  <- nation  %s (%q) == %s (%q) (typo-similar names)\n",
			cust1[1], nationName(g.D, cust1[1]), cust2[1], nationName(g.D, cust2[1]))
		break
	}
}

// findOrderCust returns (custkey, nationkey) of an order's customer.
func findOrderCust(d *dcer.Dataset, orderkey string) [2]string {
	var custkey string
	for _, o := range d.Relation("orders").Tuples {
		if o.Val(0).Str == orderkey {
			custkey = o.Val(1).Str
			break
		}
	}
	for _, c := range d.Relation("customer").Tuples {
		if c.Val(0).Str == custkey {
			return [2]string{custkey, c.Val(3).Str}
		}
	}
	return [2]string{custkey, "?"}
}

func nationName(d *dcer.Dataset, nationkey string) string {
	for _, n := range d.Relation("nation").Tuples {
		if n.Val(0).Str == nationkey {
			return strings.TrimSpace(n.Val(1).Str)
		}
	}
	return "?"
}
