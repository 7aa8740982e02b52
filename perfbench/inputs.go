package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
)

// rng is splitmix64: every input is drawn from the --seed through it, so
// the same seed gives the same inputs on every box.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng { return &rng{s: seed} }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// shuffle is a Fisher–Yates shuffle of n elements.
func (r *rng) shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.intn(i+1))
	}
}

// digest hashes a workload's generated inputs in generation order.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) add(parts ...any) {
	for _, p := range parts {
		fmt.Fprintf(d.h, "%v\x00", p)
	}
}

// sum returns the first 16 hex digits of the hash.
func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil))[:16] }
