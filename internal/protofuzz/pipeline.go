package protofuzz

import (
	"errors"
	"fmt"
	"go/parser"
	"go/token"
	"reflect"
	"sort"
	"strings"

	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/equiv"
	"repro/internal/fsm"
	"repro/internal/kmc"
	"repro/internal/optimise"
	"repro/internal/project"
	"repro/internal/sched"
	"repro/internal/session"
	"repro/internal/types"
)

// Stage names the pipeline layer a differential run failed in. The stage is
// the failure signature the shrinker preserves: a minimised reproducer must
// fail in the same stage as the original.
type Stage int

const (
	// StageValidate: the global type is ill-formed (generator bug for
	// generated protocols; an input bug for replayed .scr files).
	StageValidate Stage = iota
	// StageProject: projection rejected the global. For generated protocols
	// this is a discard, not a finding — full merge legitimately rejects —
	// but the shrinker still minimises against it for reproducers.
	StageProject
	// StageSort: the global carries a payload sort nobody registered. The
	// scribble grammar admits any identifier as a sort — registration
	// (types.RegisterSort) is a runtime act the pipeline cannot perform on
	// the input's behalf — so certification and execution are impossible
	// by design: a discard, found by the live fuzzer feeding sort "0".
	StageSort
	// StageKMC: the projected system has a safety violation — deadlock,
	// unspecified reception or orphan message. Projection soundness says
	// the projections of a well-formed global form a safe system, so this
	// stage firing is a real finding.
	StageKMC
	// StageKMCBound: the projected system is not k-exhaustive within the
	// probe ceiling. k-MC is strictly stronger than projectability — a
	// well-formed global whose loop lets one role send forever without
	// blocking on a receive is unbounded for every finite k — so for
	// generated protocols this is a discard, like StageProject.
	StageKMCBound
	// StageOptimise: the optimiser returned an uncertified candidate, its
	// best candidate failed independent re-certification, or the search
	// itself errored.
	StageOptimise
	// StageOptKMC: the optimised system lost k-MC — a certified AMR
	// reordering broke the system, the exact bug class the paper's
	// subtyping algorithm exists to prevent.
	StageOptKMC
	// StageCodegen: code generation failed or emitted unparseable Go.
	StageCodegen
	// StageCodegenIdent: code generation refused the protocol because two
	// of its names mangle to one exported Go identifier
	// (codegen.ErrIdentCollision — e.g. roles "X" and "x", found by the
	// live fuzzer). The protocol verified; only its rendering is
	// impossible, so like StageProject this is a by-design rejection.
	StageCodegenIdent
	// StageRun: an execution mode faulted (monitor violation, deadlock,
	// unexpected stepper error) instead of completing its cut.
	StageRun
	// StageEquiv: the modes disagree — per-role traces diverged across
	// blocking/stepped/scheduled, a cut was inconsistent, or the optimised
	// run's channel traces are not prefix-compatible with the plain run's.
	StageEquiv
)

func (s Stage) String() string {
	switch s {
	case StageValidate:
		return "validate"
	case StageProject:
		return "project"
	case StageSort:
		return "sort"
	case StageKMC:
		return "kmc"
	case StageKMCBound:
		return "kmc-bound"
	case StageOptimise:
		return "optimise"
	case StageOptKMC:
		return "opt-kmc"
	case StageCodegen:
		return "codegen"
	case StageCodegenIdent:
		return "codegen-ident"
	case StageRun:
		return "run"
	case StageEquiv:
		return "equiv"
	}
	return fmt.Sprintf("stage(%d)", int(s))
}

// Failure is a pipeline failure: the stage it fired in and the underlying
// error. Signature() is what "re-fails identically" means for the shrinker.
type Failure struct {
	Stage Stage
	Err   error
}

func (f *Failure) Error() string { return fmt.Sprintf("%s: %v", f.Stage, f.Err) }

// Unwrap exposes the stage's error.
//
//repro:keep errors.Is and errors.As call it through an anonymous interface
func (f *Failure) Unwrap() error { return f.Err }

// Signature is the stable identity of a failure: its stage. Error strings
// carry role names and state numbers that shrinking legitimately changes,
// so they are not part of the signature.
func (f *Failure) Signature() string { return f.Stage.String() }

// Discard reports that this failure is an expected rejection rather than
// a finding: full merge may refuse a well-formed global (StageProject), a
// well-formed global may be unbounded for every finite channel bound
// (StageKMCBound), and codegen may refuse names that collide as Go
// identifiers (StageCodegenIdent). Replayed reproducers ignore this — a
// .scr regression pin re-fails on whatever stage it was minimised against.
func (f *Failure) Discard() bool {
	switch f.Stage {
	case StageProject, StageSort, StageKMCBound, StageCodegenIdent:
		return true
	}
	return false
}

// PipelineOptions tunes a differential run. The zero value is the fuzzing
// configuration: a bounded optimiser search and a consistent cut deep
// enough to unroll every loop a few times.
type PipelineOptions struct {
	// MaxK is the k-MC probe ceiling for the plain system (default 8 — a
	// generated protocol can queue up to Config.MaxDepth consecutive sends
	// on one channel, so the ceiling must sit at or above the depth bound
	// or legitimate protocols report phantom k-MC failures). The optimised
	// system is probed to MaxK + 2·MaxUnroll: certified lookahead grows
	// the queue bound by at most the hoisted send count.
	MaxK int
	// RunCap is the per-role action cap of the reference cut (default 40).
	RunCap int
	// Optimise overrides the optimiser search budget. The zero value uses a
	// fuzzing-tuned budget (MaxUnroll 1, MaxPasses 2, MaxCandidates 32,
	// certification Bound 6) rather than the optimiser's own heavier
	// defaults: core.Check's bounded search is exponential in the bound on
	// machines with choice under nested recursion, and random protocols hit
	// that corner routinely (a deliberate stress the registry never
	// applies). A tight bound keeps every cell fast and only costs search
	// completeness — candidates whose certificates need deeper unrolling
	// are dropped, never wrongly accepted.
	Optimise optimise.Options
	// Scheduler, when non-nil, is a shared scheduler for the scheduled
	// mode; the sweep reuses one pool across hundreds of cells exactly as
	// production reuses one pool across sessions. Nil runs a private
	// 2-worker scheduler for the cell.
	Scheduler *sched.Scheduler
	// SkipCodegen skips the code-generation stage (the native fuzz target
	// uses it to keep per-exec cost down; the tier-1 sweep never does).
	SkipCodegen bool
}

func (o PipelineOptions) withDefaults() PipelineOptions {
	if o.MaxK <= 0 {
		o.MaxK = 8
	}
	if o.RunCap <= 0 {
		o.RunCap = 40
	}
	if o.Optimise.MaxUnroll == 0 {
		o.Optimise.MaxUnroll = 1
	}
	if o.Optimise.MaxPasses == 0 {
		o.Optimise.MaxPasses = 2
	}
	if o.Optimise.MaxCandidates == 0 {
		o.Optimise.MaxCandidates = 32
	}
	if o.Optimise.Bound == 0 {
		o.Optimise.Bound = 6
	}
	return o
}

// Report aggregates what a pipeline run observed, for logging and for the
// scalability sweep.
type Report struct {
	Roles     int
	States    int // total FSM states across roles (plain system)
	K         int // the k at which the plain system passed k-MC
	OptK      int // the k at which the optimised system passed
	Improved  int // roles with a certified strictly-improving rewrite
	Actions   int // total actions performed in the plain reference cut
	Recursive bool
}

// RunPipeline pushes one global type through the entire stack and returns a
// Report, or a Failure naming the stage that broke. It is deterministic:
// the same global and options produce the same outcome and traces.
func RunPipeline(g types.Global, opts PipelineOptions) (Report, *Failure) {
	opts = opts.withDefaults()
	var rep Report

	// Stage: validate.
	if err := types.ValidateGlobal(g); err != nil {
		return rep, &Failure{Stage: StageValidate, Err: err}
	}
	if s, ok := unregisteredSort(g); ok {
		return rep, &Failure{Stage: StageSort, Err: fmt.Errorf("payload sort %q is not registered (types.RegisterSort)", s)}
	}
	rep.Recursive = hasRec(g)

	// Stage: project every role.
	locals, err := project.ProjectAll(g)
	if err != nil {
		return rep, &Failure{Stage: StageProject, Err: err}
	}
	roles := types.Roles(g)
	rep.Roles = len(roles)
	if len(roles) < 2 {
		// No communication, no system: every downstream stage is vacuous.
		// Succeeding here (rather than failing) matters to the shrinker —
		// a trivial protocol must never match a real failure's signature.
		return rep, nil
	}
	fsms := map[types.Role]*fsm.FSM{}
	var machines []*fsm.FSM
	for _, r := range roles {
		m, err := fsm.FromLocal(r, locals[r])
		if err != nil {
			return rep, &Failure{Stage: StageProject, Err: fmt.Errorf("machine for %s: %w", r, err)}
		}
		fsms[r] = m
		machines = append(machines, m)
		rep.States += m.NumStates()
	}

	// Stage: k-MC check the projected system. Projection soundness makes
	// this a hard oracle: the projections of a well-formed global must be
	// k-multiparty-compatible for some small k.
	sys, err := kmc.NewSystem(machines...)
	if err != nil {
		return rep, &Failure{Stage: StageKMC, Err: err}
	}
	k, res := kmc.CheckUpTo(sys, opts.MaxK)
	if !res.OK {
		stage := StageKMC
		if res.Violation != nil && res.Violation.Kind == kmc.NotExhaustive {
			stage = StageKMCBound
		}
		return rep, &Failure{Stage: stage, Err: fmt.Errorf("projected system not %d-MC: %w", opts.MaxK, res.Violation)}
	}
	rep.K = k

	// Stage: optimise every role; every returned candidate must carry a
	// passing certificate, and the best is independently re-certified.
	optLocals := map[types.Role]types.Local{}
	optFSMs := map[types.Role]*fsm.FSM{}
	bound := certBound(opts.Optimise)
	for _, r := range roles {
		res, err := optimise.Optimise(r, locals[r], opts.Optimise)
		if err != nil {
			return rep, &Failure{Stage: StageOptimise, Err: fmt.Errorf("%s: %w", r, err)}
		}
		for _, c := range res.Certified {
			if !c.Cert.OK {
				return rep, &Failure{Stage: StageOptimise, Err: fmt.Errorf("%s: uncertified candidate %s returned", r, c.Type)}
			}
		}
		recheck, err := core.CheckTypes(r, res.Best.Type, locals[r], core.Options{Bound: bound})
		if err != nil || !recheck.OK {
			return rep, &Failure{Stage: StageOptimise, Err: fmt.Errorf("%s: best candidate %s failed re-certification (%v)", r, res.Best.Type, err)}
		}
		if res.Improved {
			rep.Improved++
			optLocals[r] = res.Best.Type
		} else {
			optLocals[r] = locals[r]
		}
		m, err := fsm.FromLocal(r, optLocals[r])
		if err != nil {
			return rep, &Failure{Stage: StageOptimise, Err: fmt.Errorf("optimised machine for %s: %w", r, err)}
		}
		optFSMs[r] = m
	}

	// Stage: the optimised system must still be k-MC (at a bound that has
	// room for the certified lookahead). Hoisted sends inflate the reachable
	// configuration space multiplicatively per role: the optimised 8-role
	// FFT explores hundreds of thousands of configurations at k=1, where the
	// plain one explores a few hundred.
	optMachines := make([]*fsm.FSM, 0, len(roles))
	for _, r := range roles {
		optMachines = append(optMachines, optFSMs[r])
	}
	optSys, err := kmc.NewSystem(optMachines...)
	if err != nil {
		return rep, &Failure{Stage: StageOptKMC, Err: err}
	}
	optMaxK := opts.MaxK + 2*opts.Optimise.MaxUnroll
	optK, optRes := kmc.CheckUpTo(optSys, optMaxK)
	if !optRes.OK {
		return rep, &Failure{Stage: StageOptKMC, Err: fmt.Errorf("optimised system not %d-MC: %w", optMaxK, optRes.Violation)}
	}
	rep.OptK = optK

	// Stage: code generation. Both the plain and the optimised machines
	// must generate, and the emitted source must parse as Go — the
	// compile-free half of the genrt stamp contract (the generated API is
	// a deterministic function of the machines; parse failure here is
	// exactly the failure a user would hit at go build).
	if !opts.SkipCodegen {
		for name, machineSet := range map[string]map[types.Role]*fsm.FSM{"plain": fsms, "optimised": optFSMs} {
			src, err := codegen.Generate("protofuzz", machineSet, codegen.Options{Package: "fuzzpkg"})
			if err != nil {
				stage := StageCodegen
				if errors.Is(err, codegen.ErrIdentCollision) {
					stage = StageCodegenIdent
				}
				return rep, &Failure{Stage: stage, Err: fmt.Errorf("%s: %w", name, err)}
			}
			if _, err := parser.ParseFile(token.NewFileSet(), "fuzzpkg.go", src, 0); err != nil {
				return rep, &Failure{Stage: StageCodegen, Err: fmt.Errorf("%s: emitted source does not parse: %w", name, err)}
			}
		}
	}

	// Stage: run. The plain system executes under all three modes against
	// one consistent cut; the optimised system likewise under its own cut.
	pf := func(types.Role) equiv.TraceRecorder { return &pfStrategy{} }
	plainTraces, plainBudgets, fail := runAllModes(g, nil, pf, opts)
	if fail != nil {
		return rep, fail
	}
	optTraces, optBudgets, fail := runAllModes(g, optFSMs, pf, opts)
	if fail != nil {
		return rep, fail
	}
	for _, tr := range plainTraces {
		rep.Actions += len(tr)
	}

	// Stage: optimised-vs-unoptimised observable equality. A certified AMR
	// rewrite may commit a choice early (hoisting one branch's send above
	// a receive), so the optimised system's choice resolution legitimately
	// differs from an independently-cycled plain run. What the rewrite must
	// preserve is per-channel send order, so the differential statement is:
	// every optimised behaviour is a behaviour of the plain system under
	// some choice resolution. Replay the plain system with choices guided
	// by the optimised run's channel traces and require per-channel
	// equality — exact when both runs terminated inside their budgets,
	// prefix-compatible when a budget cut one of them short.
	queues, err := guideQueues(optTraces)
	if err != nil {
		return rep, &Failure{Stage: StageEquiv, Err: err}
	}
	guidedSess, err := buildSession(g, nil, certBound(opts.Optimise))
	if err != nil {
		return rep, &Failure{Stage: StageRun, Err: fmt.Errorf("building guided session: %w", err)}
	}
	guidedBudgets, guided, err := equiv.ReferenceRunWith(guidedSess, opts.RunCap, func(r types.Role) equiv.TraceRecorder {
		return &guidedStrategy{queues: queues[r]}
	})
	if err != nil {
		return rep, &Failure{Stage: StageRun, Err: fmt.Errorf("guided plain replay: %w", err)}
	}
	if err := CheckConsistentCut(guided); err != nil {
		return rep, &Failure{Stage: StageEquiv, Err: fmt.Errorf("guided cut: %w", err)}
	}
	exact := !rep.Recursive &&
		maxBudget(plainBudgets) < opts.RunCap &&
		maxBudget(optBudgets) < opts.RunCap &&
		maxBudget(guidedBudgets) < opts.RunCap
	if err := compareChannelTraces(guided, optTraces, exact); err != nil {
		return rep, &Failure{Stage: StageEquiv, Err: err}
	}
	return rep, nil
}

func maxBudget(budgets map[types.Role]int) int {
	max := 0
	for _, b := range budgets {
		if b > max {
			max = b
		}
	}
	return max
}

// buildSession constructs the monitored session: plain projections when
// optimised is nil, or TopDown re-certification of the optimised machines —
// itself a differential check that session.TopDown agrees with the
// optimiser's own certificates.
func buildSession(g types.Global, optimised map[types.Role]*fsm.FSM, certBound int) (*session.Session, error) {
	return session.TopDown(g, optimised, core.Options{Bound: certBound})
}

// runAllModes derives the consistent cut from a sequential stepped
// reference run, replays it under the blocking runtime and under the
// scheduler, and asserts the per-role traces identical across all three.
// Every run drives role r with a fresh recorder mk(r). It returns the
// reference traces and the cut's per-role budgets.
func runAllModes(g types.Global, optimised map[types.Role]*fsm.FSM, mk func(types.Role) equiv.TraceRecorder, opts PipelineOptions) (map[types.Role][]string, map[types.Role]int, *Failure) {
	sess, err := buildSession(g, optimised, certBound(opts.Optimise))
	if err != nil {
		return nil, nil, &Failure{Stage: StageRun, Err: fmt.Errorf("building session: %w", err)}
	}
	budgets, ref, err := equiv.ReferenceRunWith(sess, opts.RunCap, mk)
	if err != nil {
		return nil, nil, &Failure{Stage: StageRun, Err: fmt.Errorf("stepped reference: %w", err)}
	}
	if err := CheckConsistentCut(ref); err != nil {
		return nil, nil, &Failure{Stage: StageEquiv, Err: fmt.Errorf("reference cut: %w", err)}
	}
	s := opts.Scheduler
	if s == nil {
		s = sched.New(sched.Options{Workers: 2, Quantum: 8})
		defer s.Close()
	}
	for _, mode := range []equiv.Mode{equiv.Blocking, equiv.Scheduled} {
		got, err := equiv.Replay(sess.Fork(), mode, budgets, mk, s)
		if err != nil {
			return nil, nil, &Failure{Stage: StageRun, Err: fmt.Errorf("%s run: %w", mode, err)}
		}
		for r, want := range ref {
			if !reflect.DeepEqual(want, got[r]) {
				return nil, nil, &Failure{Stage: StageEquiv, Err: fmt.Errorf("role %s: %s trace %v diverges from stepped reference %v", r, mode, got[r], want)}
			}
		}
	}
	return ref, budgets, nil
}

// certBound mirrors the optimiser's own certification-bound derivation
// (core.DefaultBound + 2·MaxUnroll + 2) so re-certification and TopDown use
// the same unrolling depth the search certified against.
func certBound(o optimise.Options) int {
	if o.Bound > 0 {
		return o.Bound
	}
	mu := o.MaxUnroll
	if mu <= 0 {
		mu = optimise.DefaultMaxUnroll
	}
	return core.DefaultBound + 2*mu + 2
}

// unregisteredSort returns the first payload sort in g that no codec is
// registered for (vec<S> resolves through its element sort). Unit and the
// empty sort always pass — they carry no payload.
func unregisteredSort(g types.Global) (types.Sort, bool) {
	switch g := g.(type) {
	case types.GRec:
		return unregisteredSort(g.Body)
	case types.Comm:
		for _, b := range g.Branches {
			if b.Sort != "" && b.Sort != types.Unit {
				if _, ok := types.LookupSort(b.Sort); !ok {
					return b.Sort, true
				}
			}
			if s, bad := unregisteredSort(b.Cont); bad {
				return s, true
			}
		}
	}
	return "", false
}

// hasRec reports whether a recursion binder is reachable in g.
func hasRec(g types.Global) bool {
	switch g := g.(type) {
	case types.GRec:
		return true
	case types.Comm:
		for _, b := range g.Branches {
			if hasRec(b.Cont) {
				return true
			}
		}
	}
	return false
}

// parseAct splits an equiv.TraceStrategy action rendering ("q!val(i32)" or
// "q?stop") into peer, direction and label. Role names never contain '!'
// or '?', so the first occurrence splits unambiguously.
func parseAct(act string) (peer types.Role, send bool, label string, err error) {
	i := strings.IndexAny(act, "!?")
	if i < 0 {
		return "", false, "", fmt.Errorf("protofuzz: unparseable action %q", act)
	}
	label = act[i+1:]
	if j := strings.IndexByte(label, '('); j >= 0 {
		label = label[:j]
	}
	return types.Role(act[:i]), act[i] == '!', label, nil
}

// channelTraces decomposes per-role action traces into per-directed-channel
// label sequences: sends[{a,b}] is the labels a pushed towards b, recvs is
// the labels b popped from a.
func channelTraces(traces map[types.Role][]string) (sends, recvs map[[2]types.Role][]string, err error) {
	sends = map[[2]types.Role][]string{}
	recvs = map[[2]types.Role][]string{}
	for role, trace := range traces {
		for _, act := range trace {
			peer, isSend, label, err := parseAct(act)
			if err != nil {
				return nil, nil, err
			}
			if isSend {
				ch := [2]types.Role{role, peer}
				sends[ch] = append(sends[ch], label)
			} else {
				ch := [2]types.Role{peer, role}
				recvs[ch] = append(recvs[ch], label)
			}
		}
	}
	return sends, recvs, nil
}

// CheckConsistentCut asserts the defining property of a consistent cut over
// FIFO channels: on every directed channel, the receiver's observed label
// sequence is a prefix of the sender's emitted one (every receive in the
// cut has its matching send in the cut, in order).
func CheckConsistentCut(traces map[types.Role][]string) error {
	sends, recvs, err := channelTraces(traces)
	if err != nil {
		return err
	}
	for ch, got := range recvs {
		sent := sends[ch]
		if len(got) > len(sent) {
			return fmt.Errorf("channel %s->%s: %d receives but only %d sends in the cut", ch[0], ch[1], len(got), len(sent))
		}
		for i := range got {
			if got[i] != sent[i] {
				return fmt.Errorf("channel %s->%s: receive %d saw %q, send %d was %q", ch[0], ch[1], i, got[i], i, sent[i])
			}
		}
	}
	return nil
}

// compareChannelTraces is the optimised-vs-unoptimised oracle: per directed
// channel, one run's send sequence must be a prefix of the other's (both
// are prefixes of the same canonical channel trace); exact when both runs
// terminated.
func compareChannelTraces(plain, opt map[types.Role][]string, exact bool) error {
	pSends, _, err := channelTraces(plain)
	if err != nil {
		return err
	}
	oSends, _, err := channelTraces(opt)
	if err != nil {
		return err
	}
	chans := map[[2]types.Role]bool{}
	for ch := range pSends {
		chans[ch] = true
	}
	for ch := range oSends {
		chans[ch] = true
	}
	ordered := make([][2]types.Role, 0, len(chans))
	for ch := range chans {
		ordered = append(ordered, ch)
	}
	sort.Slice(ordered, func(i, j int) bool {
		if ordered[i][0] != ordered[j][0] {
			return ordered[i][0] < ordered[j][0]
		}
		return ordered[i][1] < ordered[j][1]
	})
	for _, ch := range ordered {
		p, o := pSends[ch], oSends[ch]
		if exact && len(p) != len(o) {
			return fmt.Errorf("channel %s->%s: terminating protocol sent %d labels plain vs %d optimised", ch[0], ch[1], len(p), len(o))
		}
		n := len(p)
		if len(o) < n {
			n = len(o)
		}
		for i := 0; i < n; i++ {
			if p[i] != o[i] {
				return fmt.Errorf("channel %s->%s: label %d is %q plain vs %q optimised", ch[0], ch[1], i, p[i], o[i])
			}
		}
	}
	return nil
}
