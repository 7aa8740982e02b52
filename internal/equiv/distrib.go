package equiv

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"os/exec"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/netchan"
	"repro/internal/sched"
	"repro/internal/session"
	"repro/internal/types"
	"repro/internal/wire"
)

// ChildConfig tells one OS process which role of which registry protocol to
// drive, and where its peers live. It crosses the process boundary as JSON
// (cmd/sessnet's -child flag, or the test harness's environment variable).
type ChildConfig struct {
	// Protocol is the registry entry name (Table 1).
	Protocol string `json:"protocol"`
	// Role is the single role this process drives.
	Role types.Role `json:"role"`
	// Network is "unix" or "tcp" — one family per session.
	Network string `json:"network"`
	// Listen is this process's own bind address.
	Listen string `json:"listen"`
	// Peers maps every other role to its dial address.
	Peers map[types.Role]string `json:"peers"`
	// Budget caps the role at the consistent cut derived by the parent's
	// reference run, so infinite protocols terminate identically.
	Budget int `json:"budget"`
	// TimeoutMS bounds the whole child session (dial + drive); expiry fails
	// the child with a timeout instead of hanging the demo.
	TimeoutMS int `json:"timeout_ms"`
}

// ChildResult is what a child process reports back on stdout.
type ChildResult struct {
	Role  types.Role `json:"role"`
	Trace []string   `json:"trace"`
	Err   string     `json:"err,omitempty"`
}

// RunChild drives one role of a verified session over the socket fabric:
// it rebuilds the protocol's session from the registry (every process
// derives the same FSMs from the same types — nothing but addresses crosses
// the process boundary), rewires the session's network onto a
// netchan.Fabric, and steps its single role under the scheduler's external
// mode, woken by the fabric's readiness events.
func RunChild(cfg ChildConfig) ChildResult {
	res := ChildResult{Role: cfg.Role}
	trace, err := runChild(cfg)
	res.Trace = trace
	if err != nil {
		res.Err = err.Error()
	}
	return res
}

func runChild(cfg ChildConfig) ([]string, error) {
	e, err := Lookup(cfg.Protocol)
	if err != nil {
		return nil, err
	}
	sess, err := BuildSession(e)
	if err != nil {
		return nil, err
	}
	tab, err := wire.TableFromLocals(cfg.Protocol, e.Locals)
	if err != nil {
		return nil, err
	}
	timeout := time.Duration(cfg.TimeoutMS) * time.Millisecond
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	fab := netchan.NewFabric(cfg.Role, tab, netchan.Options{DialTimeout: timeout})
	defer fab.Close()
	if _, err := fab.Listen(cfg.Network, cfg.Listen); err != nil {
		return nil, fmt.Errorf("listen %s %s: %w", cfg.Network, cfg.Listen, err)
	}
	for role, addr := range cfg.Peers {
		fab.SetPeer(role, addr)
	}
	sess.Rewire(func(roles ...types.Role) *session.Network {
		return session.NewCustomNetwork(fab.RouteMaker(roles), roles...)
	})
	ep, err := sess.Endpoint(cfg.Role)
	if err != nil {
		return nil, err
	}
	strat := &TraceStrategy{}
	st, err := session.NewStepper(ep, sess.FSM(cfg.Role), strat, cfg.Budget)
	if err != nil {
		return nil, err
	}
	s := sched.New(sched.Options{Workers: 1})
	defer s.Close()
	done := make(chan error, 1)
	wk, err := s.GoExternal(time.Now().Add(timeout), func(err error) { done <- err }, st)
	if err != nil {
		return nil, err
	}
	fab.SetNotify(wk.Wake)
	// Cover deliveries that landed between the session parking and the
	// notify hook installing: one manual wake forces a re-visit.
	wk.Wake()
	if err := <-done; err != nil {
		return strat.Trace(), err
	}
	return strat.Trace(), nil
}

// Spawn builds one child process from its JSON-encoded ChildConfig; the
// command must print a ChildResult as JSON on stdout. cmd/sessnet spawns
// itself with -child; the tests re-exec the test binary behind an
// environment variable.
type Spawn func(cfgJSON string) *exec.Cmd

// DistResult is a distributed run's full outcome: the consistent cut, the
// in-memory reference traces, and what each child process observed.
type DistResult struct {
	Budgets map[types.Role]int
	Ref     map[types.Role][]string
	Child   map[types.Role][]string
}

// Diverged returns the roles whose child trace differs from the reference,
// sorted; empty means the distributed run reproduced the reference exactly.
func (d *DistResult) Diverged() []types.Role {
	var bad []types.Role
	for r, ref := range d.Ref {
		got := d.Child[r]
		if len(got) != len(ref) {
			bad = append(bad, r)
			continue
		}
		for i := range ref {
			if got[i] != ref[i] {
				bad = append(bad, r)
				break
			}
		}
	}
	sort.Slice(bad, func(i, j int) bool { return bad[i] < bad[j] })
	return bad
}

// RunDistributed executes one registry protocol as one OS process per role
// over the socket fabric and compares every role's observed trace against
// the in-memory stepped reference. network is "unix" (sockets under dir) or
// "tcp" (loopback, ports pre-reserved under dir-independent :0 probing).
func RunDistributed(e string, network, dir string, maxCap int, timeout time.Duration, spawn Spawn) (*DistResult, error) {
	entry, err := Lookup(e)
	if err != nil {
		return nil, err
	}
	refSess, err := BuildSession(entry)
	if err != nil {
		return nil, err
	}
	budgets, refTraces, err := ReferenceRun(refSess, maxCap)
	if err != nil {
		return nil, err
	}
	roles := refSess.Roles()
	addrs, err := assignAddrs(roles, network, dir)
	if err != nil {
		return nil, err
	}

	type childProc struct {
		role types.Role
		cmd  *exec.Cmd
		out  *bytes.Buffer
	}
	var procs []*childProc
	for _, r := range roles {
		peers := map[types.Role]string{}
		for _, p := range roles {
			if p != r {
				peers[p] = addrs[p]
			}
		}
		cfg := ChildConfig{
			Protocol:  e,
			Role:      r,
			Network:   network,
			Listen:    addrs[r],
			Peers:     peers,
			Budget:    budgets[r],
			TimeoutMS: int(timeout / time.Millisecond),
		}
		raw, err := json.Marshal(cfg)
		if err != nil {
			return nil, err
		}
		cmd := spawn(string(raw))
		out := &bytes.Buffer{}
		cmd.Stdout = out
		procs = append(procs, &childProc{role: r, cmd: cmd, out: out})
	}
	for _, p := range procs {
		if err := p.cmd.Start(); err != nil {
			return nil, fmt.Errorf("equiv: start child %s: %w", p.role, err)
		}
	}
	childTraces := map[types.Role][]string{}
	var firstErr error
	for _, p := range procs {
		err := p.cmd.Wait()
		var res ChildResult
		if jerr := json.Unmarshal(p.out.Bytes(), &res); jerr != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("equiv: child %s output %q: %w (wait: %v)", p.role, p.out.String(), jerr, err)
			}
			continue
		}
		if res.Err != "" && firstErr == nil {
			firstErr = fmt.Errorf("equiv: child %s: %s", p.role, res.Err)
		}
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("equiv: child %s: %w", p.role, err)
		}
		childTraces[res.Role] = res.Trace
	}
	res := &DistResult{Budgets: budgets, Ref: refTraces, Child: childTraces}
	if firstErr != nil {
		// Partial traces still help diagnose which role stalled where.
		return res, firstErr
	}
	return res, nil
}

// assignAddrs picks one bind address per role: socket paths under dir for
// unix, pre-reserved loopback ports for tcp (reserve-then-release — the
// tiny reuse window is acceptable for a demo harness).
func assignAddrs(roles []types.Role, network, dir string) (map[types.Role]string, error) {
	addrs := map[types.Role]string{}
	switch network {
	case "unix":
		for _, r := range roles {
			addrs[r] = filepath.Join(dir, string(r)+".sock")
		}
	case "tcp":
		for _, r := range roles {
			port, err := freePort()
			if err != nil {
				return nil, err
			}
			addrs[r] = port
		}
	default:
		return nil, fmt.Errorf("equiv: unknown network %q (want unix or tcp)", network)
	}
	return addrs, nil
}

// freePort reserves a loopback TCP port by binding and releasing it.
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr, nil
}
