package session

import (
	"errors"
	"testing"

	"repro/internal/fsm"
	"repro/internal/types"
)

func sortedEndpoint(t *testing.T, local string) *Endpoint {
	t.Helper()
	m := fsm.MustFromLocal("a", types.MustParse(local))
	net := NewNetwork("a", "b")
	return monitoredEndpoint("a", net, m)
}

func TestSendSortChecked(t *testing.T) {
	// A binding spelled with a predeclared alias must accept the type as
	// reflect renders it: "[]byte" payloads print as "[]uint8".
	if err := types.RegisterSort(types.SortInfo{Name: "blob", Go: "[]byte"}); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		local string
		value any
		ok    bool
	}{
		{"b!l(blob).end", []byte("x"), true},
		{"b!l(blob).end", "x", false},
		{"b!l(i32).end", 42, true},
		{"b!l(i32).end", int32(42), true},
		{"b!l(i32).end", "forty-two", false},
		{"b!l(str).end", "hello", true},
		{"b!l(str).end", 3.0, false},
		{"b!l(f64).end", 3.0, true},
		{"b!l(f64).end", 3, false},
		{"b!l(bool).end", true, true},
		{"b!l(nat).end", 7, true},
		{"b!l(nat).end", -7, false},
		{"b!l(nat).end", uint(7), true},
		{"b!l(int).end", -7, true},
		{"b!l(u32).end", uint32(7), true},
		{"b!l(u32).end", int32(7), false},
		{"b!l(u64).end", uint64(7), true},
		{"b!l(i64).end", int64(7), true},
		{"b!l.end", nil, true},       // unit with no payload
		{"b!l.end", 42, true},        // unit signals may piggyback data
		{"b!l(i32).end", nil, true},  // payload omitted: allowed
		{"b!l(custom).end", 1, true}, // unknown sorts accept anything
		// Registry-bound sorts accept exactly their Go binding: scalar
		// complex128, derived vector sorts (the FFT column payloads), and
		// nested vectors; a slice of the wrong element type is a SortError.
		{"b!l(complex128).end", complex(1, 2), true},
		{"b!l(complex128).end", 1.5, false},
		{"b!l(vec<complex128>).end", []complex128{1}, true},
		{"b!l(vec<complex128>).end", []float64{1}, false},
		{"b!l(vec<complex128>).end", complex(1, 2), false},
		{"b!l(vec<vec<f64>>).end", [][]float64{{1}}, true},
		{"b!l(vec<vec<f64>>).end", []float64{1}, false},
		{"b!l(vec<complex128>).end", nil, true}, // payload omitted: allowed
	}
	for _, c := range cases {
		ep := sortedEndpoint(t, c.local)
		err := ep.Send("b", "l", c.value)
		if c.ok && err != nil {
			t.Errorf("%s with %T: unexpected error %v", c.local, c.value, err)
		}
		if !c.ok {
			var se *SortError
			if !errors.As(err, &se) {
				t.Errorf("%s with %T: error = %v, want SortError", c.local, c.value, err)
			}
		}
	}
}

func TestSortErrorDoesNotAdvanceProtocolState(t *testing.T) {
	// A SortError is produced after the monitor matched, so the monitor has
	// moved; the session faults and TrySession reports the failure — the
	// paper's analogue is a compile error, so any deterministic fault is
	// acceptable, but it must surface.
	ep := sortedEndpoint(t, "b!l(i32).end")
	err := TrySession(ep, func(e *Endpoint) error {
		return e.Send("b", "l", "wrong")
	})
	var se *SortError
	if !errors.As(err, &se) {
		t.Fatalf("TrySession = %v, want SortError", err)
	}
}
