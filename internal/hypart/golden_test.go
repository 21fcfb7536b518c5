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
// list digests of commit 339dd76's map-based one. They were re-recorded
// once since, for the hash counts alone, when the scan stopped hashing
// dimensions of extent 1 (whose bucket is always 0) only to count them:
// a digest over everything else here (blocks, cube tables, host bitsets
// and the other Stats fields) read the same on all 24 keys before and
// after. Key: dataset/n/share/shards.
var goldenPartitions = map[string]string{
	"tpch0.5/n=2/share=true/shards=1":   "99ad14a1a31b736dc4cef80b6d75899722576ca7af5b6f86c50495dee33bb0f9",
	"tpch0.5/n=2/share=true/shards=4":   "5ac345629f2afe1e3d0d0f0d8ce7e10ba98c9a53bee5965a0ba7e7c8a5739df8",
	"tpch0.5/n=2/share=false/shards=1":  "f569462bf15fcefb0bc5234da4318f72ef76274f962e59f0f783f0589c1dba38",
	"tpch0.5/n=2/share=false/shards=4":  "38d7c0136b3f17366ffb84de778ab8dcbe16ca5760664cc6ad160a45beb56314",
	"tpch0.5/n=4/share=true/shards=1":   "4785ee6eeb3a5e610607f02e238296ef486ebc93d65b031ccfdc41f86714dfad",
	"tpch0.5/n=4/share=true/shards=4":   "8329debe633b698515cb9dd440dfa19d341e79722b3b52e66e0fa02e4b941dcd",
	"tpch0.5/n=4/share=false/shards=1":  "71769f7469dde811ea5e65270e0cddade86f5daade091948c578d48e3ea72b10",
	"tpch0.5/n=4/share=false/shards=4":  "b485fb3f552a72039407fb06d949ee551f67b87e6e9c7b41bf811632277b725c",
	"tpch0.5/n=8/share=true/shards=1":   "3f2a3216730032df638253a07ff94e1849fa04fc21616a898dad3902d9cda63b",
	"tpch0.5/n=8/share=true/shards=4":   "d3ffdae849fca0d9b6c2b571c5186526243417ea1488aa5e9c5374849c074890",
	"tpch0.5/n=8/share=false/shards=1":  "0c0c0a28779b15dac7ed1f713cbaf09bbc45716ab11fcc86c34c9d885dc1c005",
	"tpch0.5/n=8/share=false/shards=4":  "12f0d4a0f53e7dc2c3b86bb817398e844612dd276870cb4afd79b84efe583feb",
	"tfacc0.3/n=2/share=true/shards=1":  "e20e1eb42b4e55101ead7316c955cf4bae7c61e49446f25a87e67c62008c5a10",
	"tfacc0.3/n=2/share=true/shards=4":  "def7549beb6fe387133157c2ea954bf95e6a3736bc783bb28205b3f14384b691",
	"tfacc0.3/n=2/share=false/shards=1": "a1911ce7691cb7d45ade5ebde5f360f91fd3eb8ac4e130e3d8ee12669f542e85",
	"tfacc0.3/n=2/share=false/shards=4": "9681b4a627f983d3f445be98df8a9ce35a9c7d802c42b1abd6d2069fea6888ae",
	"tfacc0.3/n=4/share=true/shards=1":  "8d8218642c16dda1f5bf16901a210274418867168238c73bf3bd012a7c0bd9f8",
	"tfacc0.3/n=4/share=true/shards=4":  "892fb780d10e8463a3cde72cc83b242fbb6dd6e191b66f20bb445e9ddd6ae0db",
	"tfacc0.3/n=4/share=false/shards=1": "b8934c17c2eeb4441a5f135ede79855554add41ccf1fa39d7564a54578d42f08",
	"tfacc0.3/n=4/share=false/shards=4": "8acafff9920ad89c68c8ba89aa9f7121a903b5c6e6bbe5ba67f83013ea2ae578",
	"tfacc0.3/n=8/share=true/shards=1":  "e01cdccbf88581d9dfc31466659628e88463bbd63bddff781f0eabed6214770d",
	"tfacc0.3/n=8/share=true/shards=4":  "98cb41278d47284aa85273af058fe71e504189bc4710d5b1905f3d2d1d46bb94",
	"tfacc0.3/n=8/share=false/shards=1": "b41b85d5187439f15706148e2dd3418c9885f246047ffe02ab346917d3debf9d",
	"tfacc0.3/n=8/share=false/shards=4": "aa6dea625c8f9acf9c4f54f6b7f66771a83307f4d8f558ac8e3711fd33967a15",
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
