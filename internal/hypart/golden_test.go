package hypart_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"runtime"
	"testing"

	"dcer/internal/datagen"
	"dcer/internal/hypart"
	"dcer/internal/relation"
	"dcer/internal/rule"
)

// partitionDigest is a sha256 over what Partition computes: every block
// (canon, sorted GIDs, rules, worker), every worker's union of blocks and
// of each rule's blocks (mapBuildFragments), and every Stats field. Lengths
// are written before contents, so no two distinct partitions serialize
// alike.
func partitionDigest(res *hypart.Result, n int) string {
	h := sha256.New()
	num := func(v int64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	tids := func(ids []relation.TID) {
		num(int64(len(ids)))
		for _, id := range ids {
			num(int64(id))
		}
	}
	num(int64(len(res.Blocks)))
	for _, b := range res.Blocks {
		num(int64(len(b.Canon)))
		for _, c := range b.Canon {
			num(int64(c))
		}
		tids(b.GIDs)
		num(int64(len(b.Rules)))
		for _, r := range b.Rules {
			num(int64(r))
		}
		num(int64(b.Worker))
	}
	assign := make([]int, len(res.Blocks))
	for b := range res.Blocks {
		assign[b] = res.Blocks[b].Worker
	}
	frags, ruleFrags := mapBuildFragments(res.Blocks, assign, n, len(res.Cubes))
	num(int64(len(frags)))
	for _, f := range frags {
		tids(f)
	}
	num(int64(len(ruleFrags)))
	for _, rf := range ruleFrags {
		num(int64(len(rf)))
		for _, f := range rf {
			tids(f)
		}
	}
	s := res.Stats
	for _, v := range []int64{s.HashComputations, s.HashLookups, s.GeneratedTuples, s.PlacedTuples,
		int64(s.Blocks), int64(s.HashFns), int64(s.HashFnsBaseline),
		int64(s.MaxFragment), int64(s.MinFragment), int64(s.Shards)} {
		num(v)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenPartitions were recorded from the partitioner of commit 339dd76
// (striped-map hasher, per-emit key sort, map-based block sets), before
// the dense rewrite touched it. Key: dataset/n/share/shards.
var goldenPartitions = map[string]string{
	"tpch0.5/n=2/share=true/shards=1":   "06b3fd959c20c982c1d22a20690f26de73d7712ccc0e4b39caf8b6998d241f44",
	"tpch0.5/n=2/share=true/shards=4":   "e221035af9a6ee9f6fc27ce2a34feba609e53a042f17999ec1fb90d2e485c427",
	"tpch0.5/n=2/share=false/shards=1":  "f2524224f68c90f00f171b35b64e8d729fecfca7ee15f2528116aaed53ed1ac0",
	"tpch0.5/n=2/share=false/shards=4":  "60eff498220a8a2e430bc5dc76636a82234d1b99bc73f1dfbc72edacca052a5b",
	"tpch0.5/n=4/share=true/shards=1":   "3e47e119bd271f0f674fc39888e4baf9a62c5a5e5d709d719c83ad6d51d52d2d",
	"tpch0.5/n=4/share=true/shards=4":   "309b4e36ea476dca5dc08ffb62c99d943eee25377a91065d9153a80b42d15fe3",
	"tpch0.5/n=4/share=false/shards=1":  "0d09bc77de4669002ffbb19f64775c02c642c415605dea941841ca3321a90d84",
	"tpch0.5/n=4/share=false/shards=4":  "b8b14e04a77977459894f1fd935f2e22344fcafce1e4c218880ab3ccae492a47",
	"tpch0.5/n=8/share=true/shards=1":   "cdaf79010870492ce483391ccfe1dec78711bf8ca1a70a0bf439f72edb1ec765",
	"tpch0.5/n=8/share=true/shards=4":   "65dc000b4ccca32798df654efcfebe4727788cabb99810a496354896ae6561f9",
	"tpch0.5/n=8/share=false/shards=1":  "7c977658058aceb5b530d50897f17cbc6413cc6b354e817d700d03728950214d",
	"tpch0.5/n=8/share=false/shards=4":  "721f84d40b566232e604b60e861aa04226c98400093ffb8681a9932f8895223d",
	"tfacc0.3/n=2/share=true/shards=1":  "48ab3444f761ffde0f10e81bcca8a9f562c438665700f3778b8dbd7dde8869fc",
	"tfacc0.3/n=2/share=true/shards=4":  "54786414c09097ac8502372c9c177b1586d5c47ec379cf14db24393f5e96bea2",
	"tfacc0.3/n=2/share=false/shards=1": "f1a9601a0f2dc511391c27a1777a1412c66e431bdb8c50c1644c7b1c238afe2e",
	"tfacc0.3/n=2/share=false/shards=4": "6729000e862d04ea40cef039b000388f6f47bce6390ec5f6e5fcf7dec081faeb",
	"tfacc0.3/n=4/share=true/shards=1":  "27111e4f4da5208e132ae104ab079a248291e8725809ca4162a136ec48b8ce4c",
	"tfacc0.3/n=4/share=true/shards=4":  "11508f5687f8761f71f5a356590181785ab12df3eaec285311b338d2ab48bab4",
	"tfacc0.3/n=4/share=false/shards=1": "c72c1c7c822687baf723ec49fb85f7c28dca4d9e413e5c55d48690d0dec80671",
	"tfacc0.3/n=4/share=false/shards=4": "d2aba3b93f5a8fc8734652e5ca27198cb840b70c5d58580a34c136ded6f715ad",
	"tfacc0.3/n=8/share=true/shards=1":  "85e5b1771058bae41c80ee504103ac07f4e8e75f3834da5eea98b3bd3e860cd8",
	"tfacc0.3/n=8/share=true/shards=4":  "cf834f68c67b4618e6011caca3574fbff0be05845e7e8f0af4ac208cf0e126b0",
	"tfacc0.3/n=8/share=false/shards=1": "1846dba5e7b3cc73f606dd121b6289b9c2a30b79d140b54350087c22f4977e02",
	"tfacc0.3/n=8/share=false/shards=4": "4adb7478cd7457b6a1d44a05886ffbeb9ca1a756f829342870520a7ca8118869",
}

// TestPartitionGoldenDigest pins the computed partition byte for byte:
// the dense-array partitioner must reproduce the digests of the map-based
// one it replaced, at every worker count, sharing mode and shard count. The
// shard count is GOMAXPROCS, and Stats records it.
func TestPartitionGoldenDigest(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	type instance struct {
		name  string
		d     *relation.Dataset
		rules []*rule.Rule
	}
	var insts []instance
	for _, g := range []struct {
		name string
		gen  *datagen.Generated
	}{
		{"tpch0.5", datagen.TPCH(datagen.TPCHOptions{Scale: 0.5, Dup: 0.3, Seed: 1})},
		{"tfacc0.3", datagen.TFACC(datagen.TFACCOptions{Scale: 0.3, Dup: 0.3, Seed: 1})},
	} {
		rules, err := g.gen.Rules()
		if err != nil {
			t.Fatal(err)
		}
		insts = append(insts, instance{g.name, g.gen.D, rules})
	}
	for _, in := range insts {
		for _, n := range []int{2, 4, 8} {
			for _, share := range []bool{true, false} {
				for _, shards := range []int{1, 4} {
					key := fmt.Sprintf("%s/n=%d/share=%v/shards=%d", in.name, n, share, shards)
					runtime.GOMAXPROCS(shards)
					res, err := hypart.Partition(in.d, in.rules, n, hypart.Options{Share: share})
					if err != nil {
						t.Fatalf("%s: %v", key, err)
					}
					got := partitionDigest(res, n)
					if got != goldenPartitions[key] {
						t.Errorf("%s: digest %s, golden %q", key, got, goldenPartitions[key])
					}
					t.Logf("\t%q: %q,", key, got) // map-literal form, for re-recording
				}
			}
		}
	}
}
