package baseline

import (
	"fmt"
	"testing"

	"repro/internal/types"
)

func TestSeshPingPong(t *testing.T) {
	ch := NewPair(false)
	done := make(chan int)
	go func() {
		label, v, next := ch.Recv()
		if label != "ping" {
			t.Errorf("label = %s", label)
		}
		next.Send("pong", v.(int)+1)
		done <- 0
	}()
	next := ch.Send("ping", 1)
	label, v, _ := next.Recv()
	if label != "pong" || v.(int) != 2 {
		t.Errorf("got %s %v", label, v)
	}
	<-done
}

func TestSynchronousSendBlocks(t *testing.T) {
	ch := NewPair(false)
	sent := make(chan struct{})
	go func() {
		ch.Send("m", nil)
		close(sent)
	}()
	select {
	case <-sent:
		t.Fatal("synchronous send completed without receiver")
	default:
	}
	ch.Recv()
	<-sent
}

func TestFerriteSendDoesNotBlock(t *testing.T) {
	ch := NewPair(true)
	next := ch.Send("m", 1) // must not block
	label, v, _ := ch.Recv()
	if label != "m" || v.(int) != 1 {
		t.Errorf("got %s %v", label, v)
	}
	_ = next
}

func TestRecvLabel(t *testing.T) {
	ch := NewPair(true)
	ch.Send("a", 7)
	v, _, err := ch.RecvLabel("a")
	if err != nil || v.(int) != 7 {
		t.Fatalf("RecvLabel = %v %v", v, err)
	}
	ch2 := NewPair(true)
	ch2.Send("b", nil)
	if _, _, err := ch2.RecvLabel("a"); err == nil {
		t.Error("wrong label accepted")
	}
}

func TestStyleStrings(t *testing.T) {
	if Sesh.String() != "sesh" || Ferrite.String() != "ferrite" || MultiCrusty.String() != "multicrusty" {
		t.Error("style names wrong")
	}
	if Style(99).String() != "unknown" {
		t.Error("unknown style name")
	}
	if !Sesh.Synchronous() || Ferrite.Synchronous() || !MultiCrusty.Synchronous() {
		t.Error("synchrony flags wrong")
	}
}

func TestMeshThreeParty(t *testing.T) {
	m := NewMesh(false, "k", "s", "t")
	if m.Endpoint("zz") != nil {
		t.Error("unknown role returned an endpoint")
	}
	const iters = 20
	errs := make(chan error, 3)
	// One iteration of the double-buffering loop per round, MultiCrusty
	// style: every interaction is a fresh synchronous binary channel.
	go func() {
		e := m.Endpoint("k")
		for i := 0; i < iters; i++ {
			if err := e.Send("s", "ready", nil); err != nil {
				errs <- err
				return
			}
			v, err := e.RecvLabel("s", "value")
			if err != nil {
				errs <- err
				return
			}
			if _, err := e.RecvLabel("t", "ready"); err != nil {
				errs <- err
				return
			}
			if err := e.Send("t", "value", v); err != nil {
				errs <- err
				return
			}
		}
		errs <- nil
	}()
	go func() {
		e := m.Endpoint("s")
		for i := 0; i < iters; i++ {
			if _, err := e.RecvLabel("k", "ready"); err != nil {
				errs <- err
				return
			}
			if err := e.Send("k", "value", i); err != nil {
				errs <- err
				return
			}
		}
		errs <- nil
	}()
	sunk := make([]int, 0, iters)
	go func() {
		e := m.Endpoint("t")
		for i := 0; i < iters; i++ {
			if err := e.Send("k", "ready", nil); err != nil {
				errs <- err
				return
			}
			v, err := e.RecvLabel("k", "value")
			if err != nil {
				errs <- err
				return
			}
			sunk = append(sunk, v.(int))
		}
		errs <- nil
	}()
	for i := 0; i < 3; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if len(sunk) != iters {
		t.Fatalf("sink received %d", len(sunk))
	}
	for i, v := range sunk {
		if v != i {
			t.Fatalf("sunk[%d] = %d", i, v)
		}
	}
}

func TestMeshUnknownPeer(t *testing.T) {
	m := NewMesh(false, "a", "b")
	e := m.Endpoint("a")
	if e.Role() != "a" {
		t.Errorf("Role = %s", e.Role())
	}
	if err := e.Send("zz", "l", nil); err == nil {
		t.Error("send to unknown peer accepted")
	}
	if _, _, err := e.Recv("zz"); err == nil {
		t.Error("recv from unknown peer accepted")
	}
}

func TestMeshRecvLabelMismatch(t *testing.T) {
	m := NewMesh(true, "a", "b")
	a, b := m.Endpoint("a"), m.Endpoint("b")
	if err := a.Send("b", "x", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := b.RecvLabel("a", "y"); err == nil {
		t.Error("label mismatch accepted")
	}
}

// Synchronous reports whether the style blocks senders until reception.
func (s Style) Synchronous() bool { return s != Ferrite }

// RecvLabel is Recv with a label assertion, for protocols without branching.
func (c *Chan) RecvLabel(want types.Label) (any, *Chan, error) {
	label, value, next := c.Recv()
	if label != want {
		return nil, next, fmt.Errorf("baseline: expected label %s, got %s", want, label)
	}
	return value, next, nil
}
