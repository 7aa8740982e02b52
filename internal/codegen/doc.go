// Package codegen is the Go analogue of Rumpsteak's code generation
// pipeline (§2.1 of the paper, Fig. 1a "generate"): given a protocol — a
// Scribble description or a registry entry — it projects every role, builds
// the verified FSM (optionally the automatically AMR-optimised one from
// internal/optimise) and emits a compilable Go package whose types encode
// the machine in the state pattern:
//
//   - one struct type per FSM state, each carrying a one-shot stamp
//     (genrt.St) so a state value is consumed by the transition it performs;
//   - Send* methods that consume the state and return the next state;
//   - branching receives returning a one-shot sum value discriminated by
//     label, whose not-taken continuations are permanently consumed;
//   - an End terminal type whose reachability encodes protocol completion
//     (the generated runner demands the live End value back).
//
// Because every action a generated state value offers is, by construction, a
// transition of the verified machine, the emitted code drives the
// monitor-free unchecked endpoint primitives of package session
// (session.UncheckedForCodegen via genrt): no per-message FSM step, no sort
// check — the same "conformance costs nothing at run time" property the Rust
// framework gets from its type checker. What Go cannot check statically,
// affine use of state values, remains a cheap integer-compare guard at run
// time. See DESIGN.md ("The three API tiers").
//
// The emitted source is gofmt-canonical by construction: the emitter pads
// aligned blocks (const specs, struct fields) and ends the file the way
// gofmt does, so no go/format re-print runs on the generation path.
// TestGenerateIsGofmtCanonical pins that property over the registry, the
// golden protocols and fuzz-generated protocols, and Generate still parses
// its output before returning it.
//
// The command-line front end is cmd/sessgen; the checked-in packages under
// examples/gen are regenerated with go:generate and gated against drift in
// CI.
//
// DESIGN.md sections "Tier 3: generated state-pattern APIs" and "The
// typed-sort registry and its Go bindings" are the design notes this
// package implements; EXPERIMENTS.md ("Generated APIs") maps the emitted
// packages onto the paper's Fig. 6 bars, and the generated Try* stepping
// face is covered by DESIGN.md, "Non-blocking stepping and the scheduler".
package codegen
