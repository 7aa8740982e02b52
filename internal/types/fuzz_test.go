package types

import "testing"

// Fuzz targets guard the parsers against panics and check the
// parse–print–parse fixpoint. `go test` runs them over the seed corpus;
// `go test -fuzz FuzzParseLocal ./internal/types` explores further.

// localSeeds and globalSeeds seed the parser fuzzers; the validation
// oracle tests run over them too.
var localSeeds = []string{
	"end",
	"mu x.s!ready.x",
	"t?ready.s!{value(i32).end, stop.end}",
	"mu t.s?{d0.s!a0.t, d1.s!a1.t}",
	"w4!col(vec<complex128>).w4?col(vec<complex128>).end",
	"q!m(vec<vec<f64>>).end",
	"p!{", "mu .", "p!l(.end", "}{", "p ? l . q ! m . end",
	"q!m(vec<).end", "q!m(vec<f64>>).end",
}

var globalSeeds = []string{
	"end",
	"mu x.t->s:ready.s->t:{value.x, stop.end}",
	"a->b:{l(i32).end, r.end}",
	"w0->w4:col(vec<complex128>).w4->w0:col(vec<complex128>).end",
	"a->:l.end", "mu x.x", "p->q:", "a->b:l(vec<.end",
}

func FuzzParseLocal(f *testing.F) {
	for _, seed := range localSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		parsed, err := Parse(src)
		if err != nil {
			return
		}
		printed := parsed.String()
		again, err := Parse(printed)
		if err != nil {
			t.Fatalf("printed form %q of %q does not reparse: %v", printed, src, err)
		}
		if !EqualLocal(parsed, again) {
			t.Fatalf("parse(print) not a fixpoint: %q -> %q -> %q", src, printed, again)
		}
	})
}

func FuzzParseGlobal(f *testing.F) {
	for _, seed := range globalSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		parsed, err := ParseGlobal(src)
		if err != nil {
			return
		}
		printed := parsed.String()
		again, err := ParseGlobal(printed)
		if err != nil {
			t.Fatalf("printed form %q of %q does not reparse: %v", printed, src, err)
		}
		if parsed.String() != again.String() {
			t.Fatalf("parse(print) not a fixpoint: %q -> %q -> %q", src, printed, again)
		}
	})
}
