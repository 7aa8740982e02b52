package wire

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/types"
)

// testTable builds a table over a synthetic protocol exercising every
// payload-carrying built-in plus nested vectors and a signal label.
func testTable(t testing.TB) *Table {
	t.Helper()
	seq := types.End{}
	mk := func(label types.Label, s types.Sort, cont types.Local) types.Local {
		return types.Send{Peer: "q", Branches: []types.Branch{{Label: label, Sort: s, Cont: cont}}}
	}
	var local types.Local = mk("sig", types.Unit, seq)
	for _, e := range []struct {
		label types.Label
		sort  types.Sort
	}{
		{"mnat", types.Nat}, {"mint", types.Int},
		{"mi32", types.I32}, {"mu32", types.U32},
		{"mi64", types.I64}, {"mu64", types.U64},
		{"mf64", types.F64}, {"mstr", types.Str},
		{"mbool", types.Bool}, {"mc128", types.Complex128},
		{"mvec", types.VecOf(types.I32)},
		{"mvv", types.VecOf(types.VecOf(types.Str))},
		{"mcol", types.VecOf(types.Complex128)},
	} {
		local = mk(e.label, e.sort, local)
	}
	tab, err := TableFromLocals("wiretest", map[types.Role]types.Local{"p": local})
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func testValues() map[types.Label]any {
	return map[types.Label]any{
		"sig":   nil,
		"mnat":  uint(7),
		"mint":  int(-9),
		"mi32":  int32(-100000),
		"mu32":  uint32(4_000_000_000),
		"mi64":  int64(-1 << 40),
		"mu64":  uint64(1 << 63),
		"mf64":  2.71828,
		"mstr":  "payload with \x00 bytes and UTF-8 ✓",
		"mbool": true,
		"mc128": complex(0.5, -0.5),
		"mvec":  []int32{3, 1, 4, 1, 5},
		"mvv":   [][]string{{"a", "b"}, {}, {"c"}},
		"mcol":  []complex128{complex(1, 1)},
	}
}

func TestDataFrameRoundTrip(t *testing.T) {
	tab := testTable(t)
	for label, v := range testValues() {
		buf, err := tab.AppendData(nil, label, v)
		if err != nil {
			t.Fatalf("%s: AppendData: %v", label, err)
		}
		f, n, err := tab.Parse(buf)
		if err != nil {
			t.Fatalf("%s: Parse: %v", label, err)
		}
		if n != len(buf) {
			t.Fatalf("%s: consumed %d of %d bytes", label, n, len(buf))
		}
		if f.Kind != KindData || f.Label != label || !reflect.DeepEqual(f.Value, v) {
			t.Fatalf("%s: round-trip got %+v, want value %v", label, f, v)
		}
	}
}

// Frames batched into one buffer parse back one at a time — the transport
// batches SendN runs into a single write.
func TestBatchedFramesParseSequentially(t *testing.T) {
	tab := testTable(t)
	vals := testValues()
	labels := tab.Labels()
	var buf []byte
	for _, l := range labels {
		var err error
		buf, err = tab.AppendData(buf, l, vals[l])
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, l := range labels {
		f, n, err := tab.Parse(buf)
		if err != nil {
			t.Fatalf("%s: %v", l, err)
		}
		if f.Label != l || !reflect.DeepEqual(f.Value, vals[l]) {
			t.Fatalf("got %v/%v, want %v/%v", f.Label, f.Value, l, vals[l])
		}
		buf = buf[n:]
	}
	if len(buf) != 0 {
		t.Fatalf("%d trailing bytes", len(buf))
	}
}

func TestParseIncomplete(t *testing.T) {
	tab := testTable(t)
	buf, err := tab.AppendData(nil, "mvec", []int32{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(buf); cut++ {
		_, _, err := tab.Parse(buf[:cut])
		if !errors.Is(err, ErrIncomplete) {
			t.Fatalf("prefix of %d bytes: err = %v, want ErrIncomplete", cut, err)
		}
	}
}

// Package-level: RegisterCause binds names process-wide, so re-running the
// test (-count>1) must re-register the same sentinel, which is idempotent.
var errBoom = errors.New("wiretest: boom")

func TestGoodbyeRoundTrip(t *testing.T) {
	sentinel := errBoom
	if err := RegisterCause("wiretest/boom", sentinel); err != nil {
		t.Fatal(err)
	}
	if err := RegisterCause("wiretest/boom", sentinel); err != nil {
		t.Fatalf("idempotent re-registration: %v", err)
	}
	if err := RegisterCause("wiretest/boom", errors.New("other")); err == nil {
		t.Fatal("rebinding a cause name must fail")
	}

	cases := []struct {
		name  string
		cause error
		check func(error) bool
	}{
		{"plain close", nil, func(e error) bool { return e == nil }},
		{"registered sentinel", sentinel, func(e error) bool { return e == sentinel }},
		{"wrapped sentinel", &wrapErr{sentinel}, func(e error) bool {
			var re *RemoteError
			return errors.Is(e, sentinel) && errors.As(e, &re) && strings.Contains(re.Msg, "wrap:")
		}},
		{"unregistered cause", errors.New("ad hoc failure"), func(e error) bool {
			var re *RemoteError
			return errors.As(e, &re) && re.Name == "" && re.Msg == "ad hoc failure"
		}},
	}
	for _, tc := range cases {
		buf := AppendGoodbye(nil, tc.cause)
		f, n, err := ParseHello(buf)
		if err != nil || n != len(buf) {
			t.Fatalf("%s: parse: %v (n=%d/%d)", tc.name, err, n, len(buf))
		}
		if f.Kind != KindGoodbye || !tc.check(f.Cause) {
			t.Fatalf("%s: decoded cause %v", tc.name, f.Cause)
		}
	}
}

type wrapErr struct{ inner error }

func (w *wrapErr) Error() string { return "wrap: " + w.inner.Error() }
func (w *wrapErr) Unwrap() error { return w.inner }

func TestHelloRoundTrip(t *testing.T) {
	buf := AppendHello(nil, "client", "server", "Adder")
	f, n, err := ParseHello(buf)
	if err != nil || n != len(buf) {
		t.Fatalf("parse: %v", err)
	}
	if f.Kind != KindHello || f.From != "client" || f.To != "server" || f.Protocol != "Adder" {
		t.Fatalf("got %+v", f)
	}
}

// The dial-time codec check: a protocol whose payload sort has no codec is
// rejected with a hint naming RegisterSort, before any socket traffic.
func TestTableRejectsCodeclessSort(t *testing.T) {
	if err := types.RegisterSort(types.SortInfo{Name: "opaquenc", Go: "mypkg.Blob", Import: "example.com/mypkg"}); err != nil {
		t.Fatal(err)
	}
	local := types.Send{Peer: "q", Branches: []types.Branch{{Label: "blob", Sort: "opaquenc", Cont: types.End{}}}}
	_, err := TableFromLocals("p", map[types.Role]types.Local{"p": local})
	if err == nil || !strings.Contains(err.Error(), "RegisterSort") {
		t.Fatalf("err = %v, want a RegisterSort hint", err)
	}

	local2 := types.Send{Peer: "q", Branches: []types.Branch{{Label: "x", Sort: "nosuchsort", Cont: types.End{}}}}
	if _, err := TableFromLocals("p", map[types.Role]types.Local{"p": local2}); err == nil {
		t.Fatal("unknown sort must be rejected")
	}
}

func TestTableRejectsLabelSortConflict(t *testing.T) {
	local := types.Send{Peer: "q", Branches: []types.Branch{
		{Label: "x", Sort: types.I32, Cont: types.Recv{Peer: "q", Branches: []types.Branch{
			{Label: "x", Sort: types.Str, Cont: types.End{}},
		}}},
	}}
	if _, err := TableFromLocals("p", map[types.Role]types.Local{"p": local}); err == nil {
		t.Fatal("label at two sorts must be rejected")
	}
}

func TestParseRejectsOversizedFrame(t *testing.T) {
	buf := []byte{0xff, 0xff, 0xff, 0xff, KindData}
	var fe *FormatError
	if _, _, err := ParseHello(buf); !errors.As(err, &fe) {
		t.Fatalf("err = %v, want *FormatError", err)
	}
}

func TestAppendDataRejectsUnknownLabelAndWrongType(t *testing.T) {
	tab := testTable(t)
	if _, err := tab.AppendData(nil, "nosuch", 1); err == nil {
		t.Fatal("unknown label must fail")
	}
	if _, err := tab.AppendData(nil, "mi32", "not an int32"); err == nil {
		t.Fatal("wrong payload type must fail")
	}
	if _, err := tab.AppendData(nil, "sig", 42); err == nil {
		t.Fatal("payload on a signal label must fail")
	}
}

// TestParseSignalFrameAllocatesNothing pins the label decode: the parser
// looks the label up with the frame's bytes and returns the table's copy of
// the string, so a signal frame (no payload to box) decodes with zero
// allocations. A payload frame pays only its codec's decode.
func TestParseSignalFrameAllocatesNothing(t *testing.T) {
	tab := testTable(t)
	buf, err := tab.AppendData(nil, "sig", nil)
	if err != nil {
		t.Fatal(err)
	}
	var f Frame
	allocs := testing.AllocsPerRun(1000, func() {
		f, _, err = tab.Parse(buf)
	})
	if err != nil || f.Kind != KindData || f.Label != "sig" || f.Value != nil {
		t.Fatalf("Parse = (%+v, %v)", f, err)
	}
	if allocs != 0 {
		t.Fatalf("Table.Parse of a signal frame: %v allocs, want 0", allocs)
	}
}
