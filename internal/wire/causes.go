package wire

import (
	"errors"
	"sync"
)

// The close-cause registry: CloseWithError causes cross the wire as a
// goodbye frame carrying (sentinel name, message). Structured error values
// cannot round-trip through bytes in general, but the failure contract only
// needs errors.Is to keep working — so registered sentinel errors travel by
// name and everything else travels as its message, decoded into a
// *RemoteError that unwraps to the matched sentinel (if any).

var causeReg = struct {
	sync.RWMutex
	m     map[string]error
	names []string // registration order: most specific first wins EncodeCause
}{m: map[string]error{}}

// RegisterCause binds a short stable name to a sentinel error so the
// sentinel survives a trip across the wire: a close cause for which
// errors.Is(cause, sentinel) holds is encoded under the name, and the
// decoded cause unwraps to the sentinel. Registration is idempotent for the
// same sentinel; rebinding a name to a different sentinel is an error.
// Earlier registrations take precedence when a cause matches several.
func RegisterCause(name string, sentinel error) error {
	if name == "" || sentinel == nil {
		return errors.New("wire: RegisterCause needs a non-empty name and sentinel")
	}
	causeReg.Lock()
	defer causeReg.Unlock()
	if prev, ok := causeReg.m[name]; ok {
		if prev == sentinel {
			return nil
		}
		return errors.New("wire: cause name " + name + " already bound to a different sentinel")
	}
	causeReg.m[name] = sentinel
	causeReg.names = append(causeReg.names, name)
	return nil
}

// EncodeCause flattens a close cause for the goodbye frame: the first
// registered sentinel the cause matches (by errors.Is, in registration
// order) plus the cause's message. A nil cause — a plain Close — encodes as
// ("", "").
func EncodeCause(cause error) (name, msg string) {
	if cause == nil {
		return "", ""
	}
	causeReg.RLock()
	defer causeReg.RUnlock()
	for _, n := range causeReg.names {
		if errors.Is(cause, causeReg.m[n]) {
			return n, cause.Error()
		}
	}
	return "", cause.Error()
}

// DecodeCause inverts EncodeCause. ("", "") decodes to nil (plain Close). A
// cause whose message is exactly the sentinel's decodes to the sentinel
// itself; anything else decodes to a *RemoteError carrying the message and
// unwrapping to the matched sentinel, so errors.Is chains built on
// registered sentinels keep working across process boundaries.
func DecodeCause(name, msg string) error {
	if name == "" && msg == "" {
		return nil
	}
	var sentinel error
	if name != "" {
		causeReg.RLock()
		sentinel = causeReg.m[name]
		causeReg.RUnlock()
	}
	if sentinel != nil && msg == sentinel.Error() {
		return sentinel
	}
	return &RemoteError{Name: name, Msg: msg, sentinel: sentinel}
}

// RemoteError is a close cause received off the wire: the peer's cause
// message, plus the registered sentinel it matched (if any), which Unwrap
// exposes to errors.Is.
type RemoteError struct {
	// Name is the registered sentinel name the peer matched; empty when the
	// cause matched none.
	Name string
	// Msg is the peer-side cause's Error() string.
	Msg string

	sentinel error
}

func (e *RemoteError) Error() string { return "wire: remote cause: " + e.Msg }

// Unwrap exposes the matched sentinel (nil when the cause matched none).
//
//repro:keep errors.Is and errors.As call it through an anonymous interface
func (e *RemoteError) Unwrap() error { return e.sentinel }
