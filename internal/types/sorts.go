package types

// The sort registry: the open-world extension of the closed scalar sort set
// of Definition 1. The paper's grammar fixes S ::= i32 | u32 | ... ; real
// protocols (FFT's butterfly columns, domain objects) carry richer payloads,
// which earlier revisions smuggled under a scalar sort and an `any` escape
// hatch. A sort is now *known* when it is registered here — either one of
// the built-in scalars below, an opaque sort registered by the embedding
// program (types.RegisterSort, or sessgen's -sortmap flag), or a vector
// sort vec<S> over a known element sort S, whose Go binding is derived
// ([]S's binding) rather than registered.
//
// The registry carries the Go-type binding the code generator
// (internal/codegen) emits for each sort, and the runtime monitor
// (internal/session) consults it to check that payloads inhabit their
// declared sorts. Sorts remain plain strings structurally — α-canonical
// forms, equality and substitution are unchanged, and unknown sorts still
// parse and print — but the verifying paths (core.Check, codegen) reject
// protocols whose actions carry sorts nobody registered, so a typo like
// vec<f65> fails at verification time instead of generating an `any` API.

import (
	"encoding/binary"
	"fmt"
	goparser "go/parser"
	"go/token"
	"math"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"unicode"
)

// Complex128 is the complex scalar sort, the element sort of the FFT
// benchmark's column payloads (vec<complex128>).
const Complex128 Sort = "complex128"

// SortInfo is one registry entry: a named sort and its Go binding.
type SortInfo struct {
	// Name is the sort as written in types and Scribble sources, e.g.
	// "complex128" or "temperature". It must be a bare identifier: vector
	// sorts are derived, never registered.
	Name Sort
	// Go is the Go type the generated APIs use for payloads of this sort,
	// e.g. "complex128", "[]float64" or "mypkg.Reading" (set Import for
	// package-qualified types). The runtime monitor accepts exactly values
	// of this dynamic type (see session's sort check), so bind a concrete
	// type when the protocol may run under the tier-2 monitor: an interface
	// binding is only checkable by the generated (tier-3) APIs, whose type
	// assertion handles interfaces — the monitor compares the payload's
	// dynamic type name and would reject every implementation.
	Go string
	// Import is the package the Go type's qualifier refers to, e.g.
	// "example.com/mypkg" for Go = "mypkg.Reading"; empty for predeclared
	// and composite-of-predeclared types. The code generator adds it to the
	// generated file's imports. Bindings spanning several packages should
	// alias the type into one package and bind that.
	Import string

	// Encode, when set, serialises a payload of this sort for the wire
	// substrate (internal/wire): v is a value of the Go binding — the same
	// dynamic type the tier-2 monitor accepts — and the result is a
	// self-contained byte string Decode inverts. Codec bindings are
	// optional: a sort without them still works on every in-memory
	// substrate, and the wire layer rejects it at dial time with a
	// registration hint. All built-ins carry derived codecs, and vec<S>
	// codecs derive recursively from S's (see LookupSort).
	Encode func(v any) ([]byte, error)
	// Decode inverts Encode. It must return a value of exactly the Go
	// binding's dynamic type, so a payload decoded off the wire inhabits
	// the same type an in-memory run would carry (the monitor's sort check
	// compares dynamic types). Malformed input must fail with an error,
	// never panic: the wire fuzzer feeds truncated and corrupted frames.
	Decode func(data []byte) (any, error)
	// Zero is a zero value of the Go binding. Its dynamic type is what
	// lets the registry derive vector codecs: decoding vec<S> into a
	// correctly-typed []T needs T's reflect.Type even when the vector is
	// empty. Set it alongside Encode/Decode when registering a codec-bound
	// opaque sort that may appear under vec<>.
	Zero any
}

var sortReg = struct {
	sync.RWMutex
	m map[Sort]SortInfo
}{m: builtinSorts()}

// builtinSorts pre-registers the paper's scalar sorts plus complex128. The
// Go bindings of the integer scalars match the converter table the code
// generator has always used. Every payload-carrying built-in also carries a
// derived wire codec (fixed-width big-endian for the numeric scalars, raw
// bytes for str) so the network substrate works out of the box.
func builtinSorts() map[Sort]SortInfo {
	m := map[Sort]SortInfo{}
	for _, info := range []SortInfo{
		{Name: Unit, Go: ""}, // pure signal: no payload, no codec
		scalarCodec(Nat, "uint", uint(0), 8,
			func(b []byte, v uint) { binary.BigEndian.PutUint64(b, uint64(v)) },
			func(b []byte) uint { return uint(binary.BigEndian.Uint64(b)) }),
		scalarCodec(Int, "int", int(0), 8,
			func(b []byte, v int) { binary.BigEndian.PutUint64(b, uint64(int64(v))) },
			func(b []byte) int { return int(int64(binary.BigEndian.Uint64(b))) }),
		scalarCodec(I32, "int32", int32(0), 4,
			func(b []byte, v int32) { binary.BigEndian.PutUint32(b, uint32(v)) },
			func(b []byte) int32 { return int32(binary.BigEndian.Uint32(b)) }),
		scalarCodec(U32, "uint32", uint32(0), 4,
			binary.BigEndian.PutUint32,
			binary.BigEndian.Uint32),
		scalarCodec(I64, "int64", int64(0), 8,
			func(b []byte, v int64) { binary.BigEndian.PutUint64(b, uint64(v)) },
			func(b []byte) int64 { return int64(binary.BigEndian.Uint64(b)) }),
		scalarCodec(U64, "uint64", uint64(0), 8,
			binary.BigEndian.PutUint64,
			binary.BigEndian.Uint64),
		scalarCodec(F64, "float64", float64(0), 8,
			func(b []byte, v float64) { binary.BigEndian.PutUint64(b, math.Float64bits(v)) },
			func(b []byte) float64 { return math.Float64frombits(binary.BigEndian.Uint64(b)) }),
		scalarCodec(Str, "string", "", -1,
			nil, nil), // variable width: special-cased below
		scalarCodec(Bool, "bool", false, 1,
			func(b []byte, v bool) {
				if v {
					b[0] = 1
				}
			},
			func(b []byte) bool { return b[0] != 0 }),
		scalarCodec(Complex128, "complex128", complex128(0), 16,
			func(b []byte, v complex128) {
				binary.BigEndian.PutUint64(b, math.Float64bits(real(v)))
				binary.BigEndian.PutUint64(b[8:], math.Float64bits(imag(v)))
			},
			func(b []byte) complex128 {
				return complex(
					math.Float64frombits(binary.BigEndian.Uint64(b)),
					math.Float64frombits(binary.BigEndian.Uint64(b[8:])))
			}),
	} {
		m[info.Name] = info
	}
	return m
}

// scalarCodec builds a built-in SortInfo whose codec is a fixed-width
// big-endian encoding of the bound Go type (size < 0 selects the raw-bytes
// string codec). Decode checks the width and the encoder checks the dynamic
// type, so both halves fail typed on mismatches.
func scalarCodec[T any](name Sort, goType string, zero T, size int, put func([]byte, T), get func([]byte) T) SortInfo {
	info := SortInfo{Name: name, Go: goType, Zero: zero}
	if size < 0 { // str: raw bytes, any length
		info.Encode = func(v any) ([]byte, error) {
			s, ok := v.(string)
			if !ok {
				return nil, &CodecError{Sort: name, Reason: fmt.Sprintf("payload is %T, want string", v)}
			}
			return []byte(s), nil
		}
		info.Decode = func(data []byte) (any, error) { return string(data), nil }
		return info
	}
	info.Encode = func(v any) ([]byte, error) {
		x, ok := v.(T)
		if !ok {
			return nil, &CodecError{Sort: name, Reason: fmt.Sprintf("payload is %T, want %s", v, goType)}
		}
		b := make([]byte, size)
		put(b, x)
		return b, nil
	}
	info.Decode = func(data []byte) (any, error) {
		if len(data) != size {
			return nil, &CodecError{Sort: name, Reason: fmt.Sprintf("%d payload bytes, want %d", len(data), size)}
		}
		return get(data), nil
	}
	return info
}

// CodecError reports a sort codec refusing to encode or decode a payload:
// a value outside the sort's Go binding on the way out, or a malformed byte
// string on the way in. The wire layer surfaces it typed, so a corrupted
// frame fails loudly instead of smuggling a wrong payload into a session.
type CodecError struct {
	// Sort is the sort whose codec failed.
	Sort Sort
	// Reason describes the mismatch.
	Reason string
}

func (e *CodecError) Error() string {
	return fmt.Sprintf("types: sort %s codec: %s", e.Sort, e.Reason)
}

// RegisterSort adds a named opaque sort with its Go-type binding to the
// registry. Registration is idempotent for identical bindings; re-registering
// a name (including a built-in) with a different Go type is an error, as is a
// non-identifier name or a vector form (vec<S> is derived from S, never
// registered). So is a binding the code generator could not emit: a Go type
// that does not parse as a type wherever generated code spells it, or an
// import path a Go compiler may refuse (see checkBinding).
func RegisterSort(info SortInfo) error {
	if err := checkSortName(string(info.Name)); err != nil {
		return err
	}
	if info.Go == "" {
		return fmt.Errorf("types: sort %s needs a Go type binding", info.Name)
	}
	if err := checkBinding(info); err != nil {
		return err
	}
	sortReg.Lock()
	defer sortReg.Unlock()
	if prev, ok := sortReg.m[info.Name]; ok {
		// Idempotency compares the Go binding only: codec funcs are not
		// comparable, and two registrations agreeing on the binding are the
		// same sort. The first registration's codec wins.
		if prev.Go == info.Go && prev.Import == info.Import {
			return nil
		}
		return fmt.Errorf("types: sort %s already registered as %s (import %q); got %s (import %q)", info.Name, prev.Go, prev.Import, info.Go, info.Import)
	}
	sortReg.m[info.Name] = info
	return nil
}

// checkSortName enforces the registrable-name shape: a non-empty identifier
// of letters, digits and underscores — the intersection of the local-type
// and Scribble lexers' identifier sets — so a registered sort can always be
// spelled in both surface syntaxes and parses back as itself. (The
// local-type parser also admits primes, but the Scribble lexer does not;
// admitting them here would let a sort be registered that no .scr source
// could name and scribble.Format could never render.)
func checkSortName(name string) error {
	if name == "" {
		return fmt.Errorf("types: empty sort name")
	}
	for _, r := range name {
		if !(unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_') {
			return fmt.Errorf("types: sort name %q is not a bare identifier (register the element sort; vec<S> is derived)", name)
		}
	}
	return nil
}

// bindingProbe spells a Go binding (%[1]s) in every position the code
// generator (internal/codegen) emits one, with the tokens around it that the
// generator writes there: a branch sum's payload field, a send's parameter,
// a receive's result, its converter literal around genrt.As, the zero value
// *new(T) and a branch case's if header.
const bindingProbe = `
type XBranch struct {
	XPayload %[1]s
	XNext    X1
}

func (s X0) SendX(payload %[1]s) (X1, error) {
	return X1{}, nil
}

func (s X0) RecvX() (%[1]s, X1, error) {
	payload, st, err := genrt.Recv(s.st, "p.X0", s.ep.recvX, RoleX, LabelX, func(v any) (%[1]s, error) { return genrt.As[%[1]s]("x", v) })
	if err != nil {
		return *new(%[1]s), X1{}, err
	}
	switch label {
	case LabelX:
		if b.XPayload, err = genrt.As[%[1]s]("x", v); err != nil {
			return XBranch{}, err
		}
	}
	return payload, X1{ep: s.ep, st: st}, nil
}
`

// checkBinding is what makes generated packages parse by construction:
// every other piece of text the generator varies is an identifier it
// mangles itself, a quoted string literal or comment text it escapes, so a
// sort binding is the one piece it takes as given. The binding is checked
// once, here: a probe file places the Go type, and []T for the vec<S>
// forms derived from it, in every position the generator emits one, and
// the import path in an import line. A type that fails to parse in any of
// those positions is refused. So is an import path outside the Go spec's
// implementation restriction: non-empty, graphic runes only, and no space,
// U+FFFD or any of !"#$%&'()*,:;<=>?[\]^`{|}.
func checkBinding(info SortInfo) error {
	src := "package p\n"
	if info.Import != "" {
		if strings.ContainsFunc(info.Import, func(r rune) bool {
			return !unicode.IsGraphic(r) || unicode.IsSpace(r) || r == '\uFFFD' || strings.ContainsRune("!\"#$%&'()*,:;<=>?[\\]^`{|}", r)
		}) {
			return fmt.Errorf("types: sort %s: import path %q is not a valid Go import path", info.Name, info.Import)
		}
		src += "\nimport " + strconv.Quote(info.Import) + "\n"
	}
	src += fmt.Sprintf(bindingProbe, info.Go) + fmt.Sprintf(bindingProbe, "[]"+info.Go)
	if _, err := goparser.ParseFile(token.NewFileSet(), "", src, goparser.SkipObjectResolution); err != nil {
		return fmt.Errorf("types: sort %s: Go binding %q does not parse as a type in generated code: %v", info.Name, info.Go, err)
	}
	return nil
}

// LookupSort resolves a sort to its Go binding: registry entries directly,
// vec<S> forms by deriving []T from S's binding. When the element sort
// carries a codec and a Zero exemplar, the vector's codec is derived from
// them recursively — so vec<vec<complex128>> serialises without anyone
// registering it. The second result is false for unknown sorts.
func LookupSort(s Sort) (SortInfo, bool) {
	if elem, ok := VecElem(s); ok {
		info, ok := LookupSort(elem)
		if !ok || info.Go == "" { // vec<unit> has no payload representation
			return SortInfo{}, false
		}
		out := SortInfo{Name: s, Go: "[]" + info.Go, Import: info.Import}
		if info.Encode != nil && info.Decode != nil && info.Zero != nil {
			deriveVecCodec(&out, info)
		}
		return out, true
	}
	sortReg.RLock()
	info, ok := sortReg.m[s]
	sortReg.RUnlock()
	return info, ok
}

// deriveVecCodec fills out's codec from the element sort's: a uvarint
// element count, then each element as a uvarint byte length followed by the
// element codec's output. The element's Zero exemplar supplies the
// reflect.Type needed to build a correctly-typed []T on decode — the
// monitor's sort check compares dynamic types, so decoding vec<i32> into
// []any instead of []int32 would reject every payload.
func deriveVecCodec(out *SortInfo, elem SortInfo) {
	elemT := reflect.TypeOf(elem.Zero)
	sliceT := reflect.SliceOf(elemT)
	name := out.Name
	out.Zero = reflect.Zero(sliceT).Interface()
	out.Encode = func(v any) ([]byte, error) {
		rv := reflect.ValueOf(v)
		if !rv.IsValid() || rv.Type() != sliceT {
			return nil, &CodecError{Sort: name, Reason: fmt.Sprintf("payload is %T, want %s", v, sliceT)}
		}
		n := rv.Len()
		buf := binary.AppendUvarint(nil, uint64(n))
		for i := 0; i < n; i++ {
			eb, err := elem.Encode(rv.Index(i).Interface())
			if err != nil {
				return nil, err
			}
			buf = binary.AppendUvarint(buf, uint64(len(eb)))
			buf = append(buf, eb...)
		}
		return buf, nil
	}
	out.Decode = func(data []byte) (any, error) {
		n, used := binary.Uvarint(data)
		if used <= 0 {
			return nil, &CodecError{Sort: name, Reason: "truncated element count"}
		}
		data = data[used:]
		// Each element costs at least one length byte, so a count beyond
		// len(data) is corrupt — reject before allocating n slots.
		if n > uint64(len(data)) {
			return nil, &CodecError{Sort: name, Reason: fmt.Sprintf("element count %d exceeds remaining %d bytes", n, len(data))}
		}
		slice := reflect.MakeSlice(sliceT, int(n), int(n))
		for i := 0; i < int(n); i++ {
			sz, used := binary.Uvarint(data)
			if used <= 0 || sz > uint64(len(data)-used) {
				return nil, &CodecError{Sort: name, Reason: fmt.Sprintf("truncated element %d", i)}
			}
			ev, err := elem.Decode(data[used : used+int(sz)])
			if err != nil {
				return nil, err
			}
			rv := reflect.ValueOf(ev)
			if !rv.IsValid() || rv.Type() != elemT {
				return nil, &CodecError{Sort: name, Reason: fmt.Sprintf("element codec returned %T, want %s", ev, elemT)}
			}
			slice.Index(i).Set(rv)
			data = data[used+int(sz):]
		}
		if len(data) != 0 {
			return nil, &CodecError{Sort: name, Reason: fmt.Sprintf("%d trailing bytes after %d elements", len(data), n)}
		}
		return slice.Interface(), nil
	}
}

// KnownSort reports whether s is registered, or a vector over a known
// payload-carrying element sort. The empty sort normalises to Unit and is
// known.
func KnownSort(s Sort) bool {
	if s == "" {
		return true
	}
	if s == Unit {
		return true
	}
	return hasPayload(s)
}

// hasPayload reports whether LookupSort binds s to a Go payload type,
// without deriving vector codecs: the checkers ask KnownSort of every
// transition they validate.
func hasPayload(s Sort) bool {
	if elem, ok := VecElem(s); ok {
		return hasPayload(elem)
	}
	sortReg.RLock()
	info := sortReg.m[s]
	sortReg.RUnlock()
	return info.Go != ""
}

// RegisteredSorts returns the registered entries (built-ins plus user
// registrations), sorted by name — the seed set for property tests and
// fuzzers over the sort grammar.
//
//repro:keep the seed set of the types, scribble and wire fuzz tests
func RegisteredSorts() []SortInfo {
	sortReg.RLock()
	out := make([]SortInfo, 0, len(sortReg.m))
	for _, info := range sortReg.m {
		out = append(out, info)
	}
	sortReg.RUnlock()
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Name < out[j-1].Name; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// VecOf returns the vector sort over elem: vec<elem>.
func VecOf(elem Sort) Sort { return Sort("vec<" + string(elem) + ">") }

// VecElem reports whether s is a vector sort and returns its element sort.
func VecElem(s Sort) (Sort, bool) {
	str := string(s)
	if !strings.HasPrefix(str, "vec<") || !strings.HasSuffix(str, ">") {
		return "", false
	}
	return Sort(str[len("vec<") : len(str)-1]), true
}

// UnknownSortsLocal returns the unknown sorts appearing in t, in first-use
// order without duplicates. Empty means every payload sort is known.
func UnknownSortsLocal(t Local) []Sort {
	var out []Sort
	seen := map[Sort]bool{}
	var walk func(Local)
	walk = func(t Local) {
		switch t := t.(type) {
		case Rec:
			walk(t.Body)
		case Send:
			for _, b := range t.Branches {
				noteUnknown(b.Sort, seen, &out)
				walk(b.Cont)
			}
		case Recv:
			for _, b := range t.Branches {
				noteUnknown(b.Sort, seen, &out)
				walk(b.Cont)
			}
		}
	}
	walk(t)
	return out
}

// UnknownSortsGlobal is UnknownSortsLocal for global types.
func UnknownSortsGlobal(g Global) []Sort {
	var out []Sort
	seen := map[Sort]bool{}
	var walk func(Global)
	walk = func(g Global) {
		switch g := g.(type) {
		case GRec:
			walk(g.Body)
		case Comm:
			for _, b := range g.Branches {
				noteUnknown(b.Sort, seen, &out)
				walk(b.Cont)
			}
		}
	}
	walk(g)
	return out
}

func noteUnknown(s Sort, seen map[Sort]bool, out *[]Sort) {
	if KnownSort(s) || seen[s] {
		return
	}
	seen[s] = true
	*out = append(*out, s)
}
