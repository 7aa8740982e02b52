package protofuzz

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"testing"

	"repro/internal/project"
	"repro/internal/scribble"
	"repro/internal/types"
	"repro/internal/wire"
)

// TestSeedCorpusInSync pins the checked-in fuzz seed corpora to the
// generator: the files under internal/scribble and internal/wire's
// testdata/fuzz directories must be byte-identical to what the current
// generator produces. Regenerate with
//
//	PF_UPDATE_CORPUS=1 go test ./internal/protofuzz -run TestSeedCorpusInSync
//
// after a deliberate generator change (the new files replay as seeds in
// the target packages' plain `go test`, which validates them).
func TestSeedCorpusInSync(t *testing.T) {
	scrib, err := ScribbleSeedCorpus()
	if err != nil {
		t.Fatal(err)
	}
	wireFrames, err := WireSeedCorpus()
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for name, src := range scrib {
		files[filepath.Join("..", "scribble", "testdata", "fuzz", "FuzzScribbleRoundTrip", name)] = EncodeCorpusString(src)
	}
	for name, frames := range wireFrames {
		files[filepath.Join("..", "wire", "testdata", "fuzz", "FuzzWireRoundTrip", name)] = EncodeCorpusBytes(frames)
	}

	update := os.Getenv("PF_UPDATE_CORPUS") != ""
	for path, want := range files {
		if update {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, want, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v\nregenerate: PF_UPDATE_CORPUS=1 go test ./internal/protofuzz -run TestSeedCorpusInSync", err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s is stale\nregenerate: PF_UPDATE_CORPUS=1 go test ./internal/protofuzz -run TestSeedCorpusInSync", path)
		}
	}
}

// The helpers below derive the checked-in seed corpora for the wire-format
// fuzzers from the protocol generator. FuzzScribbleRoundTrip and
// FuzzWireRoundTrip live in packages the generator transitively imports
// (scribble and wire sit below session in the dependency order), so they
// cannot call the generator from their f.Add loops; instead the generated
// seeds are materialised as go-fuzz corpus files under each package's
// testdata/fuzz/<Target>/ directory — picked up both by seed replay in
// plain `go test` and as the fuzzing start set — and TestSeedCorpusInSync
// here keeps the files from drifting as the generator evolves.

// corpusGenSeeds are the generator seeds rendered into both corpora. They
// are ordinary sweep seeds: each names a deterministic projectable
// protocol via GenerateProjectable(Config{Seed: s}, 20).
var corpusGenSeeds = []uint64{1, 2, 3, 5, 8, 13}

// ScribbleSeedCorpus returns the generated scribble sources keyed by
// corpus file name: formatted projectable protocols for every corpus seed
// plus the deterministic extreme-shape corpus.
func ScribbleSeedCorpus() (map[string]string, error) {
	out := map[string]string{}
	for _, seed := range corpusGenSeeds {
		g, _, ok := GenerateProjectable(Config{Seed: seed}, 20)
		if !ok {
			return nil, fmt.Errorf("no projectable protocol within 20 proposals of seed %d", seed)
		}
		src, err := scribble.FormatGlobal(fmt.Sprintf("pfgen%d", seed), g)
		if err != nil {
			return nil, fmt.Errorf("seed %d: %w", seed, err)
		}
		out[fmt.Sprintf("pf_gen_%04d", seed)] = src
	}
	for _, ng := range CorpusGlobals() {
		src, err := scribble.FormatGlobal(ng.Name, ng.Global)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", ng.Name, err)
		}
		out["pf_corpus_"+ng.Name] = src
	}
	return out, nil
}

// WireSeedCorpus returns generated wire-frame byte streams keyed by corpus
// file name: for each corpus seed, the projectable protocol's r0 endpoint
// is compiled to a label table and every label is encoded as one data
// frame with a non-trivial exemplar payload, batched into a single stream
// the frame parser must consume frame by frame.
func WireSeedCorpus() (map[string][]byte, error) {
	out := map[string][]byte{}
	for _, seed := range corpusGenSeeds {
		g, _, ok := GenerateProjectable(Config{Seed: seed}, 20)
		if !ok {
			return nil, fmt.Errorf("no projectable protocol within 20 proposals of seed %d", seed)
		}
		locals, err := project.ProjectAll(g)
		if err != nil {
			return nil, fmt.Errorf("seed %d: %w", seed, err)
		}
		tab, err := wire.TableFromLocals(fmt.Sprintf("pfgen%d", seed), locals)
		if err != nil {
			return nil, fmt.Errorf("seed %d: table: %w", seed, err)
		}
		labels := tab.Labels()
		sort.Slice(labels, func(i, j int) bool { return labels[i] < labels[j] })
		var stream []byte
		for _, label := range labels {
			s, _ := tab.Sort(label)
			stream, err = tab.AppendData(stream, label, sortExemplar(s))
			if err != nil {
				return nil, fmt.Errorf("seed %d: %s: %w", seed, label, err)
			}
		}
		out[fmt.Sprintf("pf_gen_%04d", seed)] = stream
	}
	return out, nil
}

// sortExemplar builds a small non-trivial value of a sort from its
// registered Zero: scalars stay zero, vectors carry two zero elements so
// nested length framing is exercised.
func sortExemplar(s types.Sort) any {
	if s == "" || s == types.Unit {
		return nil
	}
	info, ok := types.LookupSort(s)
	if !ok {
		return nil
	}
	rv := reflect.ValueOf(info.Zero)
	if rv.Kind() == reflect.Slice {
		elem := reflect.Zero(rv.Type().Elem())
		out := reflect.MakeSlice(rv.Type(), 0, 2)
		out = reflect.Append(out, elem, elem)
		return out.Interface()
	}
	return info.Zero
}

// EncodeCorpusString renders a string as a go-fuzz v1 corpus file.
func EncodeCorpusString(s string) []byte {
	return []byte("go test fuzz v1\nstring(" + strconv.Quote(s) + ")\n")
}

// EncodeCorpusBytes renders a byte slice as a go-fuzz v1 corpus file.
func EncodeCorpusBytes(b []byte) []byte {
	return []byte("go test fuzz v1\n[]byte(" + strconv.Quote(string(b)) + ")\n")
}

// NamedGlobal is a corpus entry: a deterministic hand-built global type
// exercising a shape the random generator reaches only rarely.
type NamedGlobal struct {
	Name   string
	Global types.Global
}

// CorpusGlobals returns the deterministic extreme-shape corpus used to seed
// the fuzz targets (FuzzPipeline, FuzzScribbleRoundTrip, FuzzWireRoundTrip):
// deep nested recursion, a maximum-arity choice, nested vector payloads and
// a wide role pipeline. Every entry validates and projects.
func CorpusGlobals() []NamedGlobal {
	a, b, c := types.Role("a"), types.Role("b"), types.Role("c")

	// Two nested loops: the outer restarts the session, the inner streams
	// vectors until the chooser breaks out of one loop or both.
	deepRec := types.GRec{Name: "outer", Body: types.GComm(a, b, "go", types.Unit,
		types.GRec{Name: "inner", Body: types.Comm{From: b, To: a, Branches: []types.GBranch{
			{Label: "val", Sort: types.VecOf(types.I32), Cont: types.GVar{Name: "inner"}},
			{Label: "again", Sort: types.Unit, Cont: types.GVar{Name: "outer"}},
			{Label: "stop", Sort: types.Unit, Cont: types.GEnd{}},
		}}},
	)}

	// One choice carrying every label in the generator pool at once — the
	// widest branch any generated protocol can have.
	maxArity := func() types.Global {
		branches := make([]types.GBranch, len(labelPool))
		for i, l := range labelPool {
			branches[i] = types.GBranch{Label: l, Sort: types.I32, Cont: types.GComm(b, a, "ack", types.Unit, types.GEnd{})}
		}
		return types.Comm{From: a, To: b, Branches: branches}
	}()

	// Nested vector payloads through a three-role relay, the shapes that
	// stress the sort registry and the wire codecs.
	nestedVec := types.GComm(a, b, "grid", types.VecOf(types.VecOf(types.F64)),
		types.GComm(b, c, "col", types.VecOf(types.Complex128),
			types.GComm(c, a, "flat", types.VecOf(types.I32), types.GEnd{})))

	// A six-stage pipeline: the longest role chain the default generator
	// config can produce, with every handoff single-branch.
	wide := func() types.Global {
		roles := make([]types.Role, 6)
		for i := range roles {
			roles[i] = types.Role(fmt.Sprintf("r%d", i))
		}
		g := types.Global(types.GEnd{})
		for i := len(roles) - 2; i >= 0; i-- {
			g = types.GComm(roles[i], roles[i+1], "val", types.I64, g)
		}
		return g
	}()

	// A recursion whose body hides the loop behind a real choice — the
	// shape where budget cuts land mid-choice.
	choiceLoop := types.GRec{Name: "t", Body: types.Comm{From: a, To: b, Branches: []types.GBranch{
		{Label: "req", Sort: types.Str, Cont: types.GComm(b, a, "ack", types.Bool, types.GVar{Name: "t"})},
		{Label: "stop", Sort: types.Unit, Cont: types.GEnd{}},
	}}}

	return []NamedGlobal{
		{Name: "deep_recursion", Global: deepRec},
		{Name: "max_arity", Global: maxArity},
		{Name: "nested_vec", Global: nestedVec},
		{Name: "wide_pipeline", Global: wide},
		{Name: "choice_loop", Global: choiceLoop},
	}
}
