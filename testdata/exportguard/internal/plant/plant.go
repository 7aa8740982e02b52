// Package plant holds the export guard's planted findings.
package plant

// TestOnly is called only by plant_test.go: a finding.
func TestOnly() int { return 1 }

// T is used by cmd/use.
type T struct{}

// Dead is a method nothing calls: a finding.
func (T) Dead() {}

// String is used: fmt reaches it through fmt.Stringer.
func (T) String() string { return "T" }

// NoReason carries a keep directive with no reason: a finding.
//
//repro:keep
var NoReason = 0

// Kept is unused but stays, with a reason.
//
//repro:keep the planted test of a kept declaration
var Kept = 0
