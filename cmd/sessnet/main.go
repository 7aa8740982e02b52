// Command sessnet runs a verified session as one OS process per role over
// real sockets, and proves the run faithful: every role's observed action
// trace must be identical to the in-memory stepped reference run of the
// same protocol. It is the end-to-end demonstration that the typed-sort
// wire codecs (internal/wire), the socket substrate (internal/netchan) and
// the scheduler's external-readiness mode (sched.GoExternal) compose into a
// distributed session runtime without changing observable behaviour.
//
//	sessnet -protocol "Two Adder"            # unix sockets in a temp dir
//	sessnet -protocol "Ring" -net tcp        # loopback TCP
//	sessnet -all                             # every feasible registry entry
//
// The parent derives the consistent cut (per-role action budgets) from a
// sequential stepped reference run, then re-execs itself once per role with
// -child carrying a JSON config; each child rebuilds the same verified
// session from the registry, rewires it onto a netchan.Fabric, drives its
// single role, and reports its trace as JSON. The parent diffs child traces
// against the reference and exits non-zero on any divergence.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"
	"sort"
	"time"

	"repro/internal/equiv"
	"repro/internal/protocols"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sessnet: ")
	proto := flag.String("protocol", "", "registry protocol to run (see cmd/table1)")
	all := flag.Bool("all", false, "run every registry protocol")
	network := flag.String("net", "unix", "socket family: unix or tcp")
	maxCap := flag.Int("cap", 40, "per-role action cap for the reference cut")
	timeout := flag.Duration("timeout", 30*time.Second, "per-child session deadline")
	child := flag.String("child", "", "internal: JSON ChildConfig (drive one role and exit)")
	flag.Parse()

	if *child != "" {
		runChild(*child)
		return
	}

	var names []string
	switch {
	case *all:
		for _, e := range protocols.Registry() {
			names = append(names, e.Name)
		}
	case *proto != "":
		names = []string{*proto}
	default:
		log.Fatal("pass -protocol NAME (see cmd/table1) or -all")
	}

	exe, err := os.Executable()
	if err != nil {
		log.Fatal(err)
	}
	spawn := func(cfgJSON string) *exec.Cmd {
		cmd := exec.Command(exe, "-child", cfgJSON)
		cmd.Stderr = os.Stderr
		return cmd
	}

	failed := 0
	for _, name := range names {
		dir, err := os.MkdirTemp("", "sessnet-*")
		if err != nil {
			log.Fatal(err)
		}
		res, err := equiv.RunDistributed(name, *network, dir, *maxCap, *timeout, spawn)
		os.RemoveAll(dir)
		if err != nil {
			fmt.Printf("FAIL  %-28s %v\n", name, err)
			if res != nil {
				for r, ref := range res.Ref {
					fmt.Printf("      %s budget %d ref(%d):   %v\n", r, res.Budgets[r], len(ref), ref)
					fmt.Printf("      %s child(%d): %v\n", r, len(res.Child[r]), res.Child[r])
				}
			}
			failed++
			continue
		}
		if bad := res.Diverged(); len(bad) > 0 {
			fmt.Printf("FAIL  %-28s diverged roles: %v\n", name, bad)
			for _, r := range bad {
				fmt.Printf("      %s ref:   %v\n", r, res.Ref[r])
				fmt.Printf("      %s child: %v\n", r, res.Child[r])
			}
			failed++
			continue
		}
		var roles []string
		total := 0
		for r, tr := range res.Child {
			roles = append(roles, string(r))
			total += len(tr)
		}
		sort.Strings(roles)
		fmt.Printf("ok    %-28s %d processes (%v), %d actions, traces identical to reference\n",
			name, len(roles), roles, total)
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// runChild is the re-exec'd per-role leg: decode the config, drive the
// role, report the trace on stdout.
func runChild(raw string) {
	var cfg equiv.ChildConfig
	if err := json.Unmarshal([]byte(raw), &cfg); err != nil {
		log.Fatalf("child config: %v", err)
	}
	out, err := json.Marshal(equiv.RunChild(cfg))
	if err != nil {
		log.Fatal(err)
	}
	os.Stdout.Write(out)
}
