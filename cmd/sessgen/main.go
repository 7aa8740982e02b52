// Command sessgen is the code-generation front end of internal/codegen: the
// Go analogue of Rumpsteak's "generate APIs" arrow in Fig. 1a. It takes a
// protocol — a Table 1 registry name or a Scribble .scr file — projects
// every role, optionally swaps in the automatically derived AMR-optimised
// machines, and writes a compilable Go package of typed state-pattern
// endpoint APIs that run monitor-free (see DESIGN.md).
//
//	sessgen -protocol streaming -optimised auto -o examples/gen/streaming
//	sessgen -scribble proto.scr -pkg myproto -o ./gen/myproto
//	sessgen -protocol elevator -stdout
//	sessgen -scribble sensor.scr -sortmap 'reading=mypkg.Reading@example.com/mypkg' -o ./gen/sensor
//
// Every generated state offers both faces of each transition: the blocking
// methods (SendX/RecvX/Branch) and the non-blocking stepping face
// (TrySendX/TryRecvX/TryBranch), which returns session.ErrWouldBlock —
// leaving the state value live for a retry — when the substrate cannot
// progress, so generated sessions can multiplex over internal/sched worker
// pools instead of parking goroutines.
//
// Payload sorts must be known to the sort registry (the scalar built-ins,
// vec<S> vectors over them, or user registrations): -sortmap name=GoType
// binds a domain-specific sort to the Go type the generated API should use
// for it, and may be repeated. A package-qualified Go type needs its import
// path appended as name=GoType@importpath so the generated file compiles.
// Unknown sorts are a hard error, not an `any` fallback.
//
// The output file is <dir>/gen.go; the package name defaults to the output
// directory's base name. The checked-in packages under examples/gen carry
// go:generate directives invoking sessgen, and CI regenerates them and fails
// on drift.
//
// Generated packages also carry the marker contract the static analyzers
// (internal/lint, cmd/sessvet) key on: every state struct embeds a
// genrt.St stamp field and a //sessgen:state doc directive, and every
// branch sum pairs its types.Label discriminant with <Arm>Next
// continuation fields (//sessgen:branch). The analyzers recognise these
// shapes structurally — no import-path knowledge — so `go vet
// -vettool=sessvet` statically flags the misuses (state reuse, dropped
// continuations, unchecked Try* errors, undiscriminated branches) that
// the generated runtime would otherwise fault on with ErrStateConsumed.
package main

import (
	"flag"
	"fmt"
	"go/parser"
	"go/token"
	"log"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/codegen"
	"repro/internal/protocols"
	"repro/internal/scribble"
	"repro/internal/types"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sessgen: ")
	proto := flag.String("protocol", "", "registry protocol name (see cmd/table1)")
	scr := flag.String("scribble", "", "Scribble protocol file (.scr)")
	optimised := flag.String("optimised", "none", "machine selection: none, auto (derived AMR) or hand (registry tables)")
	pkg := flag.String("pkg", "", "package name (default: base name of -o)")
	out := flag.String("o", "", "output directory (file is written as <dir>/gen.go)")
	stdout := flag.Bool("stdout", false, "write the generated source to stdout instead of -o")
	flag.Func("sortmap", "bind a payload sort to a Go type, as name=GoType or name=GoType@importpath (repeatable)", func(arg string) error {
		name, binding, ok := strings.Cut(arg, "=")
		goType, imp, _ := strings.Cut(binding, "@")
		if !ok || name == "" || goType == "" {
			return fmt.Errorf("want name=GoType or name=GoType@importpath, got %q", arg)
		}
		if strings.Contains(goType, ".") && imp == "" {
			return fmt.Errorf("sort %s binds package-qualified type %s; append its import path as %s=%s@importpath", name, goType, name, goType)
		}
		return types.RegisterSort(types.SortInfo{Name: types.Sort(name), Go: goType, Import: imp})
	})
	flag.Parse()

	mode, err := codegen.ParseMode(*optimised)
	if err != nil {
		log.Fatal(err)
	}
	if (*proto == "") == (*scr == "") {
		log.Fatal("give exactly one of -protocol or -scribble")
	}
	if !*stdout && *out == "" {
		log.Fatal("missing -o output directory (or -stdout)")
	}

	name := *pkg
	if name == "" && *out != "" {
		abs, err := filepath.Abs(*out)
		if err != nil {
			log.Fatal(err)
		}
		name = filepath.Base(abs)
	}
	if name == "" {
		log.Fatal("missing -pkg (required with -stdout)")
	}
	if !token.IsIdentifier(name) {
		log.Fatalf("package name %q (from the -o directory) is not a valid Go identifier; pass -pkg", name)
	}
	opts := codegen.Options{Package: name, Mode: mode}

	var src []byte
	switch {
	case *proto != "":
		entry, ok := protocols.Find(*proto)
		if !ok {
			log.Fatalf("unknown protocol %q; see cmd/table1 for the registry", *proto)
		}
		if entry.Global == nil && mode == codegen.ModePlain {
			// Bottom-up-only entries still generate fine from their Locals.
			log.Printf("note: %s has no global type; generating from its endpoint types", entry.Name)
		}
		src, err = codegen.FromEntry(entry, opts)
	default:
		data, err2 := os.ReadFile(*scr)
		if err2 != nil {
			log.Fatal(err2)
		}
		p, err2 := scribble.Parse(string(data))
		if err2 != nil {
			log.Fatal(err2)
		}
		src, err = codegen.FromScribble(p, opts)
	}
	if err != nil {
		log.Fatal(err)
	}
	// Generate's output parses by construction; sessgen writes it once, so
	// it also parses it whole before writing. A failure is a generator bug,
	// reported with the raw source.
	if _, err := parser.ParseFile(token.NewFileSet(), "", src, parser.SkipObjectResolution); err != nil {
		log.Fatalf("codegen: generated source does not parse: %v\n%s", err, src)
	}

	if *stdout {
		if _, err := os.Stdout.Write(src); err != nil {
			log.Fatal(err)
		}
		return
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		log.Fatal(err)
	}
	path := filepath.Join(*out, "gen.go")
	if err := os.WriteFile(path, src, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sessgen: wrote %s\n", path)
}
