package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

	"repro/internal/netchan"
	"repro/internal/session"
	"repro/internal/types"
	"repro/internal/wire"
)

// sockSeq numbers the unix sockets this process creates.
var sockSeq atomic.Int64

// listenPair makes one fabric per role, each listening on its own unix
// socket in the work directory, and tells each where the other is: the
// one-fabric-per-process shape of cmd/sessnet, folded into one process.
func listenPair(tab *wire.Table, roles [2]types.Role, opts netchan.Options) ([2]*netchan.Fabric, error) {
	dir := filepath.Join(workDir(), "perfbench-sock")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return [2]*netchan.Fabric{}, err
	}
	var fabs [2]*netchan.Fabric
	var addrs [2]string
	for i, r := range roles {
		fabs[i] = netchan.NewFabric(r, tab, opts)
		path := filepath.Join(dir, fmt.Sprintf("%d-%d-%s.sock", os.Getpid(), sockSeq.Add(1), r))
		addr, err := fabs[i].Listen("unix", path)
		if err != nil {
			closePair(fabs)
			return [2]*netchan.Fabric{}, err
		}
		addrs[i] = addr
	}
	fabs[0].SetPeer(roles[1], addrs[1])
	fabs[1].SetPeer(roles[0], addrs[0])
	return fabs, nil
}

// closePair closes both fabrics; a unix listener removes its socket file.
func closePair(fabs [2]*netchan.Fabric) {
	for _, f := range fabs {
		if f != nil {
			f.Close()
		}
	}
}

// onFabric forks a fresh instance of base whose routes run over fab: the
// local role's halves are real sockets, the rest inert stubs.
func onFabric(base *session.Session, fab *netchan.Fabric) *session.Session {
	inst := base.Fork()
	return inst.Rewire(func(roles ...types.Role) *session.Network {
		return session.NewCustomNetwork(fab.RouteMaker(roles), roles...)
	})
}
