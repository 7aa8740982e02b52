// Package chaos is the fault-injection harness for the runtime's failure
// semantics: it drives verified protocols over networks of channel.Faulty
// routes — deterministic, seed-scheduled would-block storms, stalls and
// early closes — across the runtime's three execution modes (blocking,
// stepped and scheduled, each run by equiv.Run under a uniform budget bound
// and a per-run deadline), and
// classifies each run against the failure trichotomy:
//
//   - Clean: the protocol completed (or stopped deliberately at its budget)
//     despite the injected perturbation.
//   - Timeout: a deadline fired and the run ended with a typed error
//     reaching session.ErrTimeout — a stalled peer cost bounded time, not a
//     hang.
//   - Abort: a route was torn down and the run ended with a typed error
//     reaching the root cause through channel.CloseError (and, where the
//     session layer did the teardown, a session.ProtocolError naming the
//     failing role).
//
// Anything else — a hang (enforced externally by the test deadline), a
// leaked goroutine (counted by the test), or an error matching no arm —
// fails the soak. The package is test-only: the harness (harness_test.go)
// and the soak (chaos_test.go) run under `go test` and `make chaos-smoke`;
// see EXPERIMENTS.md for the recipe.
//
// The harness runs over two substrates: Run drives the in-memory rings, and
// RunNet drives the wire substrate — internal/netchan pipes wrapped in the
// same seed-derived Faulty plans — so the trichotomy is pinned on both sides
// of the transport boundary with one fault-family matrix.
package chaos
