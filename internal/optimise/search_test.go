package optimise_test

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/optimise"
	"repro/internal/project"
	"repro/internal/protocols"
	"repro/internal/protofuzz"
	"repro/internal/types"
)

// corpusBudget is perfbench verify-corpus's budget; wideBudget composes
// more, deeper rewrites than it under a cap the heavy types reach; the
// tests also run the defaults, which compose more still.
var (
	corpusBudget = optimise.Options{MaxUnroll: 1, MaxPasses: 2, MaxCandidates: 32, Bound: 6}
	wideBudget   = optimise.Options{MaxUnroll: 2, MaxPasses: 3, MaxCandidates: 48}
)

// roleType is one role's local type, named for failure messages.
type roleType struct {
	name string
	role types.Role
	t    types.Local
}

func projected(t *testing.T, name string, g types.Global) []roleType {
	t.Helper()
	locals, err := project.ProjectAll(g)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return roleTypes(name, locals)
}

func roleTypes(name string, locals map[types.Role]types.Local) []roleType {
	var out []roleType
	for _, r := range slices.Sorted(maps.Keys(locals)) {
		out = append(out, roleType{name: name, role: r, t: locals[r]})
	}
	return out
}

// registryTypes is every registry entry's endpoint types and, where it
// has a global type, its projections.
func registryTypes(t *testing.T) []roleType {
	var out []roleType
	for _, e := range protocols.Registry() {
		out = append(out, roleTypes(e.Name, e.Locals)...)
		if e.Global != nil {
			out = append(out, projected(t, e.Name+" (projected)", e.Global)...)
		}
	}
	return out
}

// familyTypes is every Fig. 7 family member verify-corpus verifies, built
// as its corpus builds them, over two payload sorts.
func familyTypes(t *testing.T) []roleType {
	var out []roleType
	for _, sort := range []string{"i32", "f64"} {
		for n := 1; n <= 6; n++ {
			out = append(out, projected(t, fmt.Sprintf("StreamingUnrolled%d<%s>", n, sort), types.MustParseGlobal(
				"mu x."+strings.Repeat("t->s:ready.s->t:value("+sort+").", n)+"x"))...)
		}
		for n := 1; n <= 4; n++ {
			out = append(out, projected(t, fmt.Sprintf("KBuffering%d<%s>", n, sort), types.MustParseGlobal(
				"mu x."+strings.Repeat("k->s:ready.s->k:value("+sort+").t->k:ready.k->t:value("+sort+").", n)+"x"))...)
		}
		for n := 2; n <= 4; n++ {
			var b strings.Builder
			b.WriteString("mu t.")
			for i := 0; i < n; i++ {
				fmt.Fprintf(&b, "r%d->r%d:v(%s).", i, (i+1)%n, sort)
			}
			b.WriteString("t")
			out = append(out, projected(t, fmt.Sprintf("RingN%d<%s>", n, sort), types.MustParseGlobal(b.String()))...)
		}
	}
	for n := 1; n <= 2; n++ {
		out = append(out, projected(t, fmt.Sprintf("NestedChoice%d", n), types.MustParseGlobal(nestedChoice(n)))...)
	}
	return out
}

func nestedChoice(n int) string {
	if n == 0 {
		return "end"
	}
	g := nestedChoice(n - 1)
	return fmt.Sprintf("p->o:{m.o->p:{r.%s, s.%s, u.%s}, q.o->p:{r.%s, s.%s}}", g, g, g, g, g)
}

// fuzzTypes is the projections of the first projectable protocol the
// differential fuzzer's generator draws for each of n seeds.
func fuzzTypes(n int) []roleType {
	var out []roleType
	for seed := uint64(1); seed <= uint64(n); seed++ {
		for try := uint64(0); try < 32; try++ {
			cfg := protofuzz.Config{Seed: seed<<8 | try}
			if locals, err := project.ProjectAll(protofuzz.Generate(cfg)); err == nil {
				out = append(out, roleTypes(fmt.Sprintf("protofuzz seed %d", cfg.Seed), locals)...)
				break
			}
		}
	}
	return out
}

// sameResult fails the test unless Optimise and the reference agree on
// rt under opts: the same error, or the same Result to the last field.
func sameResult(t *testing.T, rt roleType, opts optimise.Options) {
	t.Helper()
	want, werr := optimise.ReferenceOptimise(rt.role, rt.t, opts)
	got, err := optimise.Optimise(rt.role, rt.t, opts)
	if fmt.Sprint(err) != fmt.Sprint(werr) {
		t.Fatalf("%s role %s %+v: error %v, reference %v", rt.name, rt.role, opts, err, werr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s role %s %+v: result differs from the reference\n got: %s\nwant: %s", rt.name, rt.role, opts, summary(got), summary(want))
	}
}

func summary(r optimise.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "considered %d baseline %d improved %v", r.Considered, r.Baseline, r.Improved)
	for _, c := range r.Certified {
		fmt.Fprintf(&b, "\n  %d %d %v %+v %s", c.Lookahead, c.Unrolls, c.Steps, c.Cert.Stats, c.Type)
	}
	return b.String()
}

// TestSearchMatchesReference holds the search that keys moves before
// building them, stops at the candidate cap and certifies on recycled
// storage to the search that builds every move: the whole Result,
// certificates' statistics and traces included, must be the same.
func TestSearchMatchesReference(t *testing.T) {
	reg := registryTypes(t)
	fam := familyTypes(t)
	fuzz := fuzzTypes(100)
	if len(fuzz) < 150 {
		t.Fatalf("only %d protofuzz roles: the generator drew too few projectable protocols", len(fuzz))
	}
	for _, rt := range slices.Concat(reg, fam, fuzz) {
		sameResult(t, rt, corpusBudget)
		sameResult(t, rt, wideBudget)
		sameResult(t, rt, optimise.Options{})
	}
	for _, rt := range reg {
		sameResult(t, rt, optimise.Options{Trace: true})
	}
}

// TestSearchConcurrentCalls runs Optimise from several goroutines at once,
// so the recycled search storage passes between them; each result must
// match the reference's.
func TestSearchConcurrentCalls(t *testing.T) {
	rts := familyTypes(t)
	want := make([]optimise.Result, len(rts))
	for i, rt := range rts {
		var err error
		if want[i], err = optimise.ReferenceOptimise(rt.role, rt.t, corpusBudget); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for n := 0; n < 2*len(rts); n++ {
				i := r.Intn(len(rts))
				got, err := optimise.Optimise(rts[i].role, rts[i].t, corpusBudget)
				if err != nil || !reflect.DeepEqual(got, want[i]) {
					t.Errorf("%s role %s: concurrent result differs (err %v)", rts[i].name, rts[i].role, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
