package kmc_test

import (
	"fmt"

	"repro/internal/fsm"
	"repro/internal/kmc"
	"repro/internal/types"
)

// ExampleCheck verifies a safe reordering globally and rejects the
// deadlocking one (Example 2 of the paper).
func ExampleCheck() {
	// Safe: only q reordered to send first.
	p := fsm.MustFromLocal("p", types.MustParse("q!l1.q?l2.end"))
	q := fsm.MustFromLocal("q", types.MustParse("p!l2.p?l1.end"))
	safe, err := kmc.NewSystem(p, q)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("safe reordering:", kmc.Check(safe, 2).OK)

	// Unsafe: both receive first.
	dp := fsm.MustFromLocal("p", types.MustParse("q?l2.q!l1.end"))
	dq := fsm.MustFromLocal("q", types.MustParse("p?l1.p!l2.end"))
	unsafe, err := kmc.NewSystem(dp, dq)
	if err != nil {
		fmt.Println(err)
		return
	}
	bad := kmc.Check(unsafe, 2)
	fmt.Println("unsafe reordering:", bad.OK, "-", bad.Violation.Kind)
	// Output:
	// safe reordering: true
	// unsafe reordering: false - deadlock
}
