// Package fft implements the fast Fourier transform workload of §4.1: n×8
// matrices where an 8-point Cooley-Tukey FFT is applied across each row.
//
// The sequential transform plays the part of RustFFT — the highly-optimised
// no-message-passing baseline — while the butterfly helpers factor out the
// per-stage arithmetic used by the eight message-passing processes of the
// parallel versions (each process owns one column and exchanges whole columns
// with its stage partner, a hypercube decimation-in-frequency schedule).
package fft

import (
	"fmt"
	"math"
	"math/bits"
)

// Transform computes the in-place forward DFT of x using iterative radix-2
// decimation in frequency followed by a bit-reversal permutation. len(x) must
// be a power of two.
func Transform(x []complex128) error {
	n := len(x)
	if n == 0 || n&(n-1) != 0 {
		return fmt.Errorf("fft: length %d is not a power of two", n)
	}
	for span := n / 2; span >= 1; span /= 2 {
		for b := 0; b < n; b += 2 * span {
			for i := 0; i < span; i++ {
				u, v := x[b+i], x[b+i+span]
				x[b+i] = u + v
				x[b+i+span] = (u - v) * twiddle(i, span)
			}
		}
	}
	bitReversePermute(x)
	return nil
}

// twiddle returns W = exp(-iπ·i/span), the decimation-in-frequency factor for
// offset i at butterfly distance span.
func twiddle(i, span int) complex128 {
	angle := -math.Pi * float64(i) / float64(span)
	s, c := math.Sincos(angle)
	return complex(c, s)
}

func bitReversePermute(x []complex128) {
	n := len(x)
	shift := bits.LeadingZeros(uint(n)) + 1
	for i := range x {
		j := int(bits.Reverse(uint(i)) >> shift)
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
}

// BitReverse returns the bit reversal of i within width log2(n) — the final
// column permutation of the parallel transform.
func BitReverse(i, n int) int {
	shift := bits.LeadingZeros(uint(n)) + 1
	return int(bits.Reverse(uint(i)) >> shift)
}

// NaiveDFT returns the O(n²) discrete Fourier transform of x, used as the
// test oracle.
func NaiveDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var sum complex128
		for t := 0; t < n; t++ {
			angle := -2 * math.Pi * float64(k) * float64(t) / float64(n)
			s, c := math.Sincos(angle)
			sum += x[t] * complex(c, s)
		}
		out[k] = sum
	}
	return out
}

// SequentialColumns applies the row-wise FFT across a column-major matrix:
// cols[j][r] is row r, column j. It transforms every row in place, exactly
// the computation the eight parallel processes perform cooperatively. The
// number of columns must be a power of two.
func SequentialColumns(cols [][]complex128) error {
	nc := len(cols)
	if nc == 0 || nc&(nc-1) != 0 {
		return fmt.Errorf("fft: %d columns is not a power of two", nc)
	}
	rows := len(cols[0])
	for _, c := range cols {
		if len(c) != rows {
			return fmt.Errorf("fft: ragged columns")
		}
	}
	row := make([]complex128, nc)
	for r := 0; r < rows; r++ {
		for j := 0; j < nc; j++ {
			row[j] = cols[j][r]
		}
		if err := Transform(row); err != nil {
			return err
		}
		for j := 0; j < nc; j++ {
			cols[j][r] = row[j]
		}
	}
	return nil
}

// StageOutput computes column j's new value after one decimation-in-frequency
// stage at butterfly distance span, given its own column and its partner's
// (partner index is j XOR span). The result is written into dst, which may
// alias mine.
func StageOutput(numCols, j, span int, mine, theirs, dst []complex128) {
	i := j % (2 * span)
	if i < span {
		for k := range mine {
			dst[k] = mine[k] + theirs[k]
		}
		return
	}
	w := twiddle(i-span, span)
	for k := range mine {
		dst[k] = (theirs[k] - mine[k]) * w
	}
}

// Partner returns column j's exchange partner at butterfly distance span.
func Partner(j, span int) int { return j ^ span }

// Stages returns the butterfly distances of an numCols-point transform, in
// schedule order (numCols/2 down to 1).
func Stages(numCols int) []int {
	var out []int
	for span := numCols / 2; span >= 1; span /= 2 {
		out = append(out, span)
	}
	return out
}

// ParallelSimulate runs the column-parallel schedule without concurrency: a
// reference implementation used to validate the message-passing versions and
// to test the butterfly helpers. It returns the columns in natural (bit-
// reverse corrected) order.
func ParallelSimulate(cols [][]complex128) ([][]complex128, error) {
	nc := len(cols)
	if nc == 0 || nc&(nc-1) != 0 {
		return nil, fmt.Errorf("fft: %d columns is not a power of two", nc)
	}
	cur := make([][]complex128, nc)
	for j := range cols {
		cur[j] = append([]complex128(nil), cols[j]...)
	}
	for _, span := range Stages(nc) {
		next := make([][]complex128, nc)
		for j := 0; j < nc; j++ {
			next[j] = make([]complex128, len(cur[j]))
			StageOutput(nc, j, span, cur[j], cur[Partner(j, span)], next[j])
		}
		cur = next
	}
	// Undo the bit-reversed column order.
	out := make([][]complex128, nc)
	for j := 0; j < nc; j++ {
		out[BitReverse(j, nc)] = cur[j]
	}
	return out, nil
}
