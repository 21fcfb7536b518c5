// Package fnv implements the 64-bit FNV-1a hash as small composable
// primitives, so hot paths can fingerprint id lists and literals without
// building intermediate strings (hash/fnv forces a []byte round trip).
package fnv

// Offset64 is the FNV-1a 64-bit offset basis.
const Offset64 = 14695981039346656037

// prime64 is the FNV-1a 64-bit prime.
const prime64 = 1099511628211

// Uint64 folds the eight bytes of x into h, little-endian.
func Uint64(h uint64, x uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (x & 0xff)) * prime64
		x >>= 8
	}
	return h
}

// String folds the bytes of s into h.
func String(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * prime64
	}
	return h
}
