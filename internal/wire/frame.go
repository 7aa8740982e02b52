package wire

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/types"
)

// Frame kinds: the first body byte after the length prefix.
const (
	// KindData carries one labelled payload (a channel.Message).
	KindData = 1
	// KindGoodbye carries a close: an empty cause is a plain Close, a
	// non-empty one is CloseWithError's cause (see EncodeCause).
	KindGoodbye = 2
	// KindHello opens a route: sender role, receiver role, protocol name.
	// The accepting side uses it to bind the connection to a route and to
	// reject cross-protocol dials.
	KindHello = 3
)

// MaxFrame bounds the body length a parser will accept (16 MiB). A corrupt
// length prefix must fail typed, not allocate unbounded memory.
const MaxFrame = 1 << 24

// ErrIncomplete reports that the buffer ends mid-frame: not an error state,
// just "read more bytes and parse again".
var ErrIncomplete = errors.New("wire: incomplete frame")

// FormatError reports a structurally invalid frame: a length prefix beyond
// MaxFrame, an unknown kind or label, or a body that ends mid-field. It is
// terminal for the connection — framing has lost sync.
type FormatError struct {
	// Reason describes what was malformed.
	Reason string
}

func (e *FormatError) Error() string { return "wire: bad frame: " + e.Reason }

// Frame is one parsed frame.
type Frame struct {
	// Kind is KindData, KindGoodbye or KindHello.
	Kind byte
	// Label and Value are set for KindData. Value is nil for signal
	// messages (unit sort) and inhabits the sort's Go binding otherwise.
	Label types.Label
	Value any
	// Cause is set for KindGoodbye: nil for a plain Close, otherwise the
	// decoded close cause (a registered sentinel or a *RemoteError).
	Cause error
	// From, To and Protocol are set for KindHello.
	From, To types.Role
	Protocol string
}

// AppendData appends a data frame for (label, value) to dst and returns the
// extended buffer. The label must be in the table; a non-nil value is
// serialised with the label's sort codec.
func (t *Table) AppendData(dst []byte, label types.Label, value any) ([]byte, error) {
	c, ok := t.codecs[label]
	if !ok {
		return dst, &FormatError{Reason: fmt.Sprintf("label %q is not in the %s wire table", label, t.protocol)}
	}
	var payload []byte
	flag := byte(0)
	if value != nil {
		if c.info.Encode == nil {
			return dst, &FormatError{Reason: fmt.Sprintf("label %q carries sort %s (a signal), got payload %T", label, c.sort, value)}
		}
		b, err := c.info.Encode(value)
		if err != nil {
			return dst, err
		}
		payload, flag = b, 1
	}
	body := 1 + uvarintLen(uint64(len(label))) + len(label) + 1 + len(payload)
	dst = appendHeader(dst, body, KindData)
	dst = binary.AppendUvarint(dst, uint64(len(label)))
	dst = append(dst, label...)
	dst = append(dst, flag)
	return append(dst, payload...), nil
}

// AppendGoodbye appends a goodbye frame carrying cause (nil for a plain
// Close) and returns the extended buffer.
func AppendGoodbye(dst []byte, cause error) []byte {
	name, msg := EncodeCause(cause)
	body := 1 + uvarintLen(uint64(len(name))) + len(name) + len(msg)
	dst = appendHeader(dst, body, KindGoodbye)
	dst = binary.AppendUvarint(dst, uint64(len(name)))
	dst = append(dst, name...)
	return append(dst, msg...)
}

// AppendHello appends the route-opening handshake frame and returns the
// extended buffer.
func AppendHello(dst []byte, from, to types.Role, protocol string) []byte {
	body := 1 + uvarintLen(uint64(len(from))) + len(from) +
		uvarintLen(uint64(len(to))) + len(to) + len(protocol)
	dst = appendHeader(dst, body, KindHello)
	dst = binary.AppendUvarint(dst, uint64(len(from)))
	dst = append(dst, from...)
	dst = binary.AppendUvarint(dst, uint64(len(to)))
	dst = append(dst, to...)
	return append(dst, protocol...)
}

// appendHeader appends the u32 big-endian body length and the kind byte.
func appendHeader(dst []byte, body int, kind byte) []byte {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(body))
	dst = append(dst, hdr[:]...)
	return append(dst, kind)
}

// uvarintLen returns the encoded size of v as a uvarint.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// Parse decodes the first frame in buf, returning it and the number of
// bytes consumed. ErrIncomplete means buf ends mid-frame: keep the bytes
// and retry after the next read. Any other error is terminal for the
// stream. Data payloads are decoded with the table's sort codecs; a nil
// table parses goodbye and hello frames only.
func (t *Table) Parse(buf []byte) (Frame, int, error) {
	if len(buf) < 4 {
		return Frame{}, 0, ErrIncomplete
	}
	body := binary.BigEndian.Uint32(buf)
	if body > MaxFrame {
		return Frame{}, 0, &FormatError{Reason: fmt.Sprintf("length prefix %d exceeds MaxFrame %d", body, MaxFrame)}
	}
	if body < 1 {
		return Frame{}, 0, &FormatError{Reason: "empty frame body"}
	}
	total := 4 + int(body)
	if len(buf) < total {
		return Frame{}, 0, ErrIncomplete
	}
	rest := buf[5:total]
	switch kind := buf[4]; kind {
	case KindData:
		f, err := t.parseData(rest)
		return f, total, err
	case KindGoodbye:
		f, err := parseGoodbye(rest)
		return f, total, err
	case KindHello:
		f, err := parseHello(rest)
		return f, total, err
	default:
		return Frame{}, 0, &FormatError{Reason: fmt.Sprintf("unknown frame kind %d", kind)}
	}
}

// cutBytes pops a uvarint-length-prefixed byte run off rest.
func cutBytes(rest []byte, what string) ([]byte, []byte, error) {
	n, used := binary.Uvarint(rest)
	if used <= 0 || n > uint64(len(rest)-used) {
		return nil, nil, &FormatError{Reason: "truncated " + what}
	}
	return rest[used : used+int(n)], rest[used+int(n):], nil
}

// cutString pops a uvarint-length-prefixed string off rest.
func cutString(rest []byte, what string) (string, []byte, error) {
	b, rest, err := cutBytes(rest, what)
	return string(b), rest, err
}

// parseData decodes a data frame body. The label is looked up with the
// frame's own bytes (a map index by a converted []byte does not allocate)
// and the table's copy of the string goes into the frame, so a signal frame
// decodes without allocating.
func (t *Table) parseData(rest []byte) (Frame, error) {
	label, rest, err := cutBytes(rest, "label")
	if err != nil {
		return Frame{}, err
	}
	if len(rest) < 1 {
		return Frame{}, &FormatError{Reason: "truncated payload flag"}
	}
	flag, payload := rest[0], rest[1:]
	if t == nil {
		return Frame{}, &FormatError{Reason: "data frame on a table-less parser"}
	}
	c, ok := t.codecs[types.Label(label)]
	if !ok {
		return Frame{}, &FormatError{Reason: fmt.Sprintf("unknown label %q for protocol %s", label, t.protocol)}
	}
	f := Frame{Kind: KindData, Label: c.label}
	switch flag {
	case 0:
		if len(payload) != 0 {
			return Frame{}, &FormatError{Reason: "payload bytes after a nil-payload flag"}
		}
	case 1:
		if c.info.Decode == nil {
			return Frame{}, &FormatError{Reason: fmt.Sprintf("label %q is a signal but the frame carries a payload", c.label)}
		}
		v, err := c.info.Decode(payload)
		if err != nil {
			return Frame{}, err
		}
		f.Value = v
	default:
		return Frame{}, &FormatError{Reason: fmt.Sprintf("bad payload flag %d", flag)}
	}
	return f, nil
}

func parseGoodbye(rest []byte) (Frame, error) {
	name, rest, err := cutString(rest, "cause name")
	if err != nil {
		return Frame{}, err
	}
	return Frame{Kind: KindGoodbye, Cause: DecodeCause(name, string(rest))}, nil
}

func parseHello(rest []byte) (Frame, error) {
	from, rest, err := cutString(rest, "hello from-role")
	if err != nil {
		return Frame{}, err
	}
	to, rest, err := cutString(rest, "hello to-role")
	if err != nil {
		return Frame{}, err
	}
	return Frame{Kind: KindHello, From: types.Role(from), To: types.Role(to), Protocol: string(rest)}, nil
}

// ParseHello parses frames with a nil table — only goodbye and hello frames
// decode; used by the accepting side before it knows which route (and thus
// which table) the connection carries.
func ParseHello(buf []byte) (Frame, int, error) {
	return (*Table)(nil).Parse(buf)
}
