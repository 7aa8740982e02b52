package scribble

import (
	"testing"

	"repro/internal/project"
	"repro/internal/types"
)

// streamingSrc is Fig. 3a of the paper (role names per the figure: the sink t
// drives the loop and the source s chooses).
const streamingSrc = `
global protocol Ring(role s, role t) {
  rec loop {
    ready() from t to s;
    choice at s {
      value() from s to t;
      continue loop;
    } or {
      stop() from s to t;
    }
  }
}`

// doubleBufferingSrc is Listing 1 of the paper.
const doubleBufferingSrc = `
global protocol DoubleBuffering(role s, role k, role t) {
  rec loop {
    ready() from k to s;
    value() from s to k;
    ready() from t to k;
    value() from k to t;
    continue loop;
  }
}`

func TestParseStreaming(t *testing.T) {
	p := mustParse(streamingSrc)
	if p.Name != "Ring" {
		t.Errorf("Name = %s", p.Name)
	}
	if len(p.Roles) != 2 || p.Roles[0] != "s" || p.Roles[1] != "t" {
		t.Errorf("Roles = %v", p.Roles)
	}
	want := types.MustParseGlobal("mu loop.t->s:ready.s->t:{value.loop, stop.end}")
	if p.Global.String() != want.String() {
		t.Errorf("Global = %s, want %s", p.Global, want)
	}
}

func TestParseDoubleBuffering(t *testing.T) {
	p := mustParse(doubleBufferingSrc)
	want := types.MustParseGlobal("mu loop.k->s:ready.s->k:value.t->k:ready.k->t:value.loop")
	if p.Global.String() != want.String() {
		t.Errorf("Global = %s, want %s", p.Global, want)
	}
	// End-to-end with projection: the kernel's FSM must match Fig. 4a.
	kernel, err := project.Project(p.Global, "k")
	if err != nil {
		t.Fatal(err)
	}
	wantKernel := types.MustParse("mu loop.s!ready.s?value.t?ready.t!value.loop")
	if !types.EqualLocal(kernel, wantKernel) {
		t.Errorf("kernel projection = %s, want %s", kernel, wantKernel)
	}
}

func TestParsePayloadSort(t *testing.T) {
	p := mustParse(`global protocol P(role a, role b) { msg(i32) from a to b; }`)
	comm := p.Global.(types.Comm)
	if comm.Branches[0].Sort != types.I32 {
		t.Errorf("Sort = %s", comm.Branches[0].Sort)
	}
}

func TestParseComments(t *testing.T) {
	src := `
// a comment
global protocol P(role a, role b) {
  msg() from a to b; // trailing comment
}`
	p := mustParse(src)
	if p.Name != "P" {
		t.Errorf("Name = %s", p.Name)
	}
}

func TestParseNestedRec(t *testing.T) {
	src := `
global protocol AltBit(role s, role r) {
  rec t {
    d0() from s to r;
    choice at r {
      a0() from r to s;
      rec u {
        d1() from s to r;
        choice at r {
          a0() from r to s;
          continue u;
        } or {
          a1() from r to s;
          continue t;
        }
      }
    } or {
      a1() from r to s;
      continue t;
    }
  }
}`
	p := mustParse(src)
	want := types.MustParseGlobal(
		"mu t.s->r:d0.r->s:{a0.mu u.s->r:d1.r->s:{a0.u, a1.t}, a1.t}")
	if p.Global.String() != want.String() {
		t.Errorf("Global = %s, want %s", p.Global, want)
	}
}

func TestParseErrors(t *testing.T) {
	bad := map[string]string{
		"missing global":   `protocol P(role a, role b) { msg() from a to b; }`,
		"no roles":         `global protocol P() { }`,
		"bad continue":     `global protocol P(role a, role b) { continue t; }`,
		"choice wrong at":  `global protocol P(role a, role b) { choice at a { m() from b to a; } or { n() from a to b; } }`,
		"choice one":       `global protocol P(role a, role b) { choice at a { m() from a to b; } }`,
		"dup choice label": `global protocol P(role a, role b) { choice at a { m() from a to b; } or { m() from a to b; } }`,
		"missing semi":     `global protocol P(role a, role b) { msg() from a to b }`,
		"bad char":         `global protocol P(role a, role b) { msg() from a to b; @ }`,
		"self message":     `global protocol P(role a, role b) { msg() from a to a; }`,
		"trailing":         `global protocol P(role a, role b) { msg() from a to b; } extra`,
		"stmt after rec":   `global protocol P(role a, role b) { rec t { msg() from a to b; continue t; } other() from a to b; }`,
		"mixed receivers":  `global protocol P(role a, role b, role c) { choice at a { m() from a to b; } or { n() from a to c; } }`,
		// Invalid UTF-8 must be rejected, not read as Latin-1: byte 0xFB
		// used to lex as the letter 'û', admitting identifiers that cannot
		// appear in generated Go source (found by FuzzPipeline).
		"invalid utf8": "global protocol P(role a, role b) { \xfb() from a to b; }",
	}
	for name, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

// TestParseUnicodeIdent pins the flip side of UTF-8-aware lexing: genuine
// multi-byte letters are single identifiers (the old byte-wise lexer split
// them into Latin-1 bytes and rejected the non-letter halves).
func TestParseUnicodeIdent(t *testing.T) {
	p, err := Parse(`global protocol P(role a, role b) { α() from a to b; }`)
	if err != nil {
		t.Fatalf("unicode label rejected: %v", err)
	}
	comm, ok := p.Global.(types.Comm)
	if !ok || len(comm.Branches) != 1 || comm.Branches[0].Label != "α" {
		t.Fatalf("unicode label mis-lexed: %s", p.Global)
	}
}

// mustParse is Parse but panics on error.
func mustParse(src string) *Protocol {
	p, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return p
}
