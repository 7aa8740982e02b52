package fft

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

const eps = 1e-9

func approxEqual(a, b []complex128) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if cmplx.Abs(a[i]-b[i]) > eps*math.Max(1, cmplx.Abs(b[i])) {
			return false
		}
	}
	return true
}

func randomVector(r *rand.Rand, n int) []complex128 {
	out := make([]complex128, n)
	for i := range out {
		out[i] = complex(r.NormFloat64(), r.NormFloat64())
	}
	return out
}

func TestTransformMatchesNaiveDFT(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 4, 8, 16, 64} {
		x := randomVector(r, n)
		want := NaiveDFT(x)
		got := append([]complex128(nil), x...)
		if err := Transform(got); err != nil {
			t.Fatal(err)
		}
		if !approxEqual(got, want) {
			t.Errorf("n=%d: Transform != NaiveDFT", n)
		}
	}
}

func TestTransformRejectsNonPowerOfTwo(t *testing.T) {
	for _, n := range []int{0, 3, 6, 12} {
		if err := Transform(make([]complex128, n)); err == nil {
			t.Errorf("length %d accepted", n)
		}
	}
}

func TestTransformKnownValues(t *testing.T) {
	// DFT of an impulse is all ones.
	x := []complex128{1, 0, 0, 0, 0, 0, 0, 0}
	if err := Transform(x); err != nil {
		t.Fatal(err)
	}
	for i, v := range x {
		if cmplx.Abs(v-1) > eps {
			t.Errorf("impulse DFT[%d] = %v", i, v)
		}
	}
	// DFT of a constant is an impulse of size n at bin 0.
	y := []complex128{1, 1, 1, 1}
	Transform(y)
	if cmplx.Abs(y[0]-4) > eps || cmplx.Abs(y[1]) > eps || cmplx.Abs(y[2]) > eps || cmplx.Abs(y[3]) > eps {
		t.Errorf("constant DFT = %v", y)
	}
}

func TestBitReverse(t *testing.T) {
	want := map[int]int{0: 0, 1: 4, 2: 2, 3: 6, 4: 1, 5: 5, 6: 3, 7: 7}
	for i, w := range want {
		if got := BitReverse(i, 8); got != w {
			t.Errorf("BitReverse(%d, 8) = %d, want %d", i, got, w)
		}
	}
}

func TestPartnerAndStages(t *testing.T) {
	if got := Stages(8); len(got) != 3 || got[0] != 4 || got[1] != 2 || got[2] != 1 {
		t.Errorf("Stages(8) = %v", got)
	}
	if Partner(3, 4) != 7 || Partner(7, 4) != 3 || Partner(5, 1) != 4 {
		t.Error("Partner wrong")
	}
}

func TestSequentialColumns(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	const rows, nc = 17, 8
	cols := make([][]complex128, nc)
	for j := range cols {
		cols[j] = randomVector(r, rows)
	}
	// Oracle: transform each row with NaiveDFT.
	want := make([][]complex128, nc)
	for j := range want {
		want[j] = make([]complex128, rows)
	}
	row := make([]complex128, nc)
	for rr := 0; rr < rows; rr++ {
		for j := 0; j < nc; j++ {
			row[j] = cols[j][rr]
		}
		out := NaiveDFT(row)
		for j := 0; j < nc; j++ {
			want[j][rr] = out[j]
		}
	}
	if err := SequentialColumns(cols); err != nil {
		t.Fatal(err)
	}
	for j := range cols {
		if !approxEqual(cols[j], want[j]) {
			t.Errorf("column %d mismatch", j)
		}
	}
}

func TestSequentialColumnsErrors(t *testing.T) {
	if err := SequentialColumns(nil); err == nil {
		t.Error("empty matrix accepted")
	}
	if err := SequentialColumns([][]complex128{{1}, {1}, {1}}); err == nil {
		t.Error("3 columns accepted")
	}
	if err := SequentialColumns([][]complex128{{1, 2}, {1}}); err == nil {
		t.Error("ragged matrix accepted")
	}
}

func TestParallelSimulateMatchesSequential(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, rows := range []int{1, 5, 32} {
		cols := make([][]complex128, 8)
		for j := range cols {
			cols[j] = randomVector(r, rows)
		}
		seq := make([][]complex128, 8)
		for j := range cols {
			seq[j] = append([]complex128(nil), cols[j]...)
		}
		if err := SequentialColumns(seq); err != nil {
			t.Fatal(err)
		}
		par, err := ParallelSimulate(cols)
		if err != nil {
			t.Fatal(err)
		}
		for j := range seq {
			if !approxEqual(par[j], seq[j]) {
				t.Errorf("rows=%d column %d mismatch", rows, j)
			}
		}
	}
}

func TestQuickParallelEqualsSequential(t *testing.T) {
	f := func(seed int64, rowsRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		rows := int(rowsRaw%16) + 1
		cols := make([][]complex128, 8)
		for j := range cols {
			cols[j] = randomVector(r, rows)
		}
		seq := make([][]complex128, 8)
		for j := range cols {
			seq[j] = append([]complex128(nil), cols[j]...)
		}
		if err := SequentialColumns(seq); err != nil {
			return false
		}
		par, err := ParallelSimulate(cols)
		if err != nil {
			return false
		}
		for j := range seq {
			if !approxEqual(par[j], seq[j]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestQuickLinearity(t *testing.T) {
	// DFT(ax + by) = a·DFT(x) + b·DFT(y).
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		const n = 16
		x, y := randomVector(r, n), randomVector(r, n)
		a, b := complex(r.NormFloat64(), 0), complex(r.NormFloat64(), 0)
		combo := make([]complex128, n)
		for i := range combo {
			combo[i] = a*x[i] + b*y[i]
		}
		Transform(combo)
		Transform(x)
		Transform(y)
		for i := range combo {
			if cmplx.Abs(combo[i]-(a*x[i]+b*y[i])) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestQuickParseval(t *testing.T) {
	// ∑|x|² = (1/n)·∑|X|².
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		const n = 32
		x := randomVector(r, n)
		var before float64
		for _, v := range x {
			before += real(v)*real(v) + imag(v)*imag(v)
		}
		Transform(x)
		var after float64
		for _, v := range x {
			after += real(v)*real(v) + imag(v)*imag(v)
		}
		return math.Abs(before-after/float64(n)) < 1e-6*math.Max(1, before)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
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
