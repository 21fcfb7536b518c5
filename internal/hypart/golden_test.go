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
// (canon, size, worker), every cube's cell→block table, the per-tuple host
// bitsets under the partition's own assignment (Result.Hosts), and every
// Stats field. Lengths are written before contents, so no two distinct
// partitions serialize alike.
func partitionDigest(res *hypart.Result, d *relation.Dataset, n int) string {
	h := sha256.New()
	num := func(v int64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	num(int64(len(res.Blocks)))
	assign := make([]int, len(res.Blocks))
	for i, b := range res.Blocks {
		num(int64(len(b.Canon)))
		for _, c := range b.Canon {
			num(int64(c))
		}
		num(int64(b.Size))
		num(int64(b.Worker))
		assign[i] = b.Worker
	}
	num(int64(len(res.Cubes)))
	for _, cb := range res.Cubes {
		num(int64(len(cb.Blocks)))
		for _, b := range cb.Blocks {
			num(int64(b))
		}
	}
	hosts := res.Hosts(d, assign, n)
	num(int64(len(hosts)))
	for _, w := range hosts {
		num(int64(w))
	}
	s := res.Stats
	for _, v := range []int64{s.HashComputations, s.HashLookups, s.GeneratedTuples, s.PlacedTuples,
		int64(s.Blocks), int64(s.HashFns), int64(s.HashFnsBaseline),
		int64(s.MaxFragment), int64(s.MinFragment), int64(s.Shards)} {
		num(v)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenPartitions were recorded from the partitioner of commit 60a6e13,
// which still kept every block's member list: each size is a list's
// length, and the host bitsets were derived from the lists (per tuple,
// the workers of the blocks listing it). That partitioner reproduced the
// list digests of commit 339dd76's map-based one. Key:
// dataset/n/share/shards.
var goldenPartitions = map[string]string{
	"tpch0.5/n=2/share=true/shards=1":   "b31c624fb74ba7f9688018750e3b79b4ea13e425583e8d34a8effb82830309b8",
	"tpch0.5/n=2/share=true/shards=4":   "c9e86dad1e84b9ad1b104d8e36ae5725b45852ba8c6f774409e3d48c6cf3df2f",
	"tpch0.5/n=2/share=false/shards=1":  "b4afd2a39479f9c0e6963d3c1a40c647509560f2f0674985ac96ffa27846cb9d",
	"tpch0.5/n=2/share=false/shards=4":  "28eb07055350009d2f7ffc1a5926bdc388d08355be669e10d69757c81fa640fb",
	"tpch0.5/n=4/share=true/shards=1":   "7de9f5bb078b051a71a9198c9dc343a72d8ea2b31302792db28594297de9c357",
	"tpch0.5/n=4/share=true/shards=4":   "31f4bbdad7061583f58a20e2386b3f911088f65a369fd61d60c204c944305478",
	"tpch0.5/n=4/share=false/shards=1":  "c6e1491e582d4f486aca962fb7ca9334becc0b756b270ffe701c1792b1f9b05f",
	"tpch0.5/n=4/share=false/shards=4":  "b007dd2bc366a9dcf5ba041ba1a6d737514702cc2fe7ac95730b20078d1bf4ec",
	"tpch0.5/n=8/share=true/shards=1":   "d2666bbe0f56863edbc6f406e18fdc31a4953a77c3913f30b6b73978a920d239",
	"tpch0.5/n=8/share=true/shards=4":   "4a7328b54456338ccc6d334954ed3b3e1f8bf5c7ff50647d63a3031fb5ea13f5",
	"tpch0.5/n=8/share=false/shards=1":  "0a0e81c12f77bf86b65cacf8bfad6a6952bab529ea4803bc1b0483a7d1510dca",
	"tpch0.5/n=8/share=false/shards=4":  "cdbc8d81dedf6f355df1b0a823fd5d6e4e6c71d4499d965dfd3d10b3f2289e6e",
	"tfacc0.3/n=2/share=true/shards=1":  "d6d3c5affe2a632cedb1d5ee6ee2c71993ac342c8cee5b9009cb27360b505074",
	"tfacc0.3/n=2/share=true/shards=4":  "4bacc271218c250a1a257f3a3c96cf39eb88d65c0590fdad20087b451f79ae6b",
	"tfacc0.3/n=2/share=false/shards=1": "1dbee50360d27a7fe28b0de5be0102efcf9da5ae2ccba4d45214db42bdbc490d",
	"tfacc0.3/n=2/share=false/shards=4": "e2004653e4ff4919d2ad3f209bb0c893ec29b0016494c14a1881638a878144f8",
	"tfacc0.3/n=4/share=true/shards=1":  "f0a9b9f502ee6adc7580179b3172218e7221e959cc08a0494b1be4bd18961192",
	"tfacc0.3/n=4/share=true/shards=4":  "11e4b6890053fb87365e9b3dab894daa58274bfcc7fca4401fb386701fd281d9",
	"tfacc0.3/n=4/share=false/shards=1": "e8f1f76c88af970e28cd7e6b910e3d6d96e6500126edc8f70c52d9f904092c51",
	"tfacc0.3/n=4/share=false/shards=4": "b6628a32709ca8a0270c36a52b83f128630a9dca25b0edc4e3aaefbed8639526",
	"tfacc0.3/n=8/share=true/shards=1":  "121d16b284003e9d5d13547b077be00b9e02e1fc9a5b9b031d0d97a3bf97b50c",
	"tfacc0.3/n=8/share=true/shards=4":  "d2f1309181aa8077cd183196aff43244c0a8ef4ef7327c4e7d7410810805c252",
	"tfacc0.3/n=8/share=false/shards=1": "1929f4c1fe51dc264c9f3e176c3f599cccc61a3397bd7b89e9d80a17b2e6be14",
	"tfacc0.3/n=8/share=false/shards=4": "59a25c6ba220aa4be1e850e60496afaf1aa57a04cfe7c5202bf729930f1a715d",
}

// TestPartitionGoldenDigest pins the computed partition byte for byte:
// counting block sizes and reading hosts off the cubes must reproduce the
// digests of the partitioner that kept member lists, at every worker
// count, sharing mode and shard count. The shard count is GOMAXPROCS, and
// Stats records it.
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
					got := partitionDigest(res, in.d, n)
					if got != goldenPartitions[key] {
						t.Errorf("%s: digest %s, golden %q", key, got, goldenPartitions[key])
					}
					t.Logf("\t%q: %q,", key, got) // map-literal form, for re-recording
				}
			}
		}
	}
}
