package mlpred

import (
	"math"
	"sync"
	"testing"

	"dcer/internal/relation"
)

// TestPairCacheSnapshotCoherent hammers one cache from several goroutines
// while snapshotting concurrently: every snapshot must be internally
// consistent (hits+misses never exceeds the work issued so far, entries
// never exceeds misses — every entry was created by exactly one miss).
func TestPairCacheSnapshotCoherent(t *testing.T) {
	c := NewPairCache()
	cl := c.ClassifierID("m")
	const goroutines, per = 4, 5000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				a, b := relation.TID(i%257), relation.TID((i*g)%263)
				if _, ok := c.Lookup(cl, a, b); !ok {
					c.Store(cl, a, b, true)
				}
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := c.Snapshot()
			if s.Hits+s.Misses > goroutines*per {
				t.Errorf("snapshot counts %d lookups, more than the %d issued", s.Hits+s.Misses, goroutines*per)
				return
			}
			if int64(s.Entries) > s.Misses {
				t.Errorf("snapshot tore: %d entries but only %d misses", s.Entries, s.Misses)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-done

	final := c.Snapshot()
	if final.Hits+final.Misses != goroutines*per {
		t.Fatalf("final lookups = %d, want %d", final.Hits+final.Misses, goroutines*per)
	}
	if final.Entries == 0 {
		t.Fatal("cache retained nothing")
	}
}

func TestFeatureStoreSnapshotCoherent(t *testing.T) {
	s := NewFeatureStore(0)
	attrs := s.AttrsID([]int{0})
	var wg sync.WaitGroup
	const goroutines, per = 4, 2000
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				s.GetText(relation.TID(i%101), attrs, "some text")
			}
		}()
	}
	wg.Wait()
	snap := s.Snapshot()
	if snap.Hits+snap.Misses != goroutines*per {
		t.Fatalf("lookups = %d, want %d", snap.Hits+snap.Misses, goroutines*per)
	}
	if snap.Entries != 101 {
		t.Fatalf("entries = %d, want 101", snap.Entries)
	}
	if int64(snap.Entries) != snap.Misses {
		t.Fatalf("entries %d != misses %d", snap.Entries, snap.Misses)
	}
}

// TestFeatureStoreOnePublisherPerKey races 8 goroutines over the same
// keys — in three attribute lists and at GIDs that land in the first
// directory segment, in a late one and in the last slot of the id space —
// and checks the CAS publication contract: every goroutine gets the same
// bundle for a key, and exactly one of the duplicate computations is
// retained and counted, so Misses == Entries == distinct keys.
func TestFeatureStoreOnePublisherPerKey(t *testing.T) {
	s := NewFeatureStore(0)
	lists := []uint32{s.AttrsID([]int{0}), s.AttrsID([]int{1, 2}), s.AttrsID(nil)}
	var gids []relation.TID
	for i := 0; i < 600; i++ { // crosses pages and the first segments
		gids = append(gids, relation.TID(i))
	}
	for i := 0; i < 40; i++ {
		gids = append(gids, relation.TID(1<<20+i*97), relation.TID(math.MaxInt32-i))
	}
	const goroutines = 8
	keys := len(lists) * len(gids)
	got := make([][]*Features, goroutines) // per goroutine, by list*len(gids)+gid index
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		got[g] = make([]*Features, keys)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			vals := []relation.Value{relation.S("some text")}
			for l, id := range lists {
				for i := range gids {
					// Each goroutine walks the keys from its own offset, so
					// first touches collide instead of following one leader.
					k := (i + g*len(gids)/goroutines) % len(gids)
					f := s.Get(gids[k], id, vals)
					if c, ok := s.Cached(gids[k], id); !ok || c != f {
						t.Errorf("Cached(%d, %d) = %p, %v after Get returned %p", gids[k], id, c, ok, f)
					}
					got[g][l*len(gids)+k] = f
				}
			}
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		for k := range got[g] {
			if got[g][k] != got[0][k] {
				t.Fatalf("goroutine %d holds a different bundle for gid %d list %d", g, gids[k%len(gids)], k/len(gids))
			}
		}
	}
	snap := s.Snapshot()
	if snap.Misses != int64(keys) || snap.Entries != keys {
		t.Fatalf("misses %d, entries %d, want both %d (one publisher per key)", snap.Misses, snap.Entries, keys)
	}
	if snap.Hits+snap.Misses != int64(goroutines*keys) {
		t.Fatalf("hits %d + misses %d != %d lookups", snap.Hits, snap.Misses, goroutines*keys)
	}
	if _, ok := s.Cached(700, lists[0]); ok {
		t.Fatal("Cached reports a bundle nobody computed")
	}
}
