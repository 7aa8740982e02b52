// Package netchan is the socket-backed channel substrate: the
// channel.Substrate contract of the in-memory rings, carried over TCP and
// Unix-domain connections framed by internal/wire.
//
// A network route is one direction of one role pair, carried on its own
// connection. Each end is a pump pair around a bounded channel.Ring: the
// sending half buffers TrySendN batches (and TrySend traffic that finds
// frames ahead of it) in its ring and a writer goroutine drains it,
// encoding whole runs into single writes; the receiving half parses frames
// off the socket into its ring, from which TryRecv/TryRecvN pop. Send and
// Recv are, as on every substrate, those probes plus WaitSend/WaitRecv
// (channel.Send, channel.Recv). The rings are the would-block boundary — a
// full send ring is exactly the full-socket-buffer condition, reported as
// (false, nil) per the Try* contract — and the receive ring's bound gives
// end-to-end backpressure: when the consumer lags, the reader stops
// draining the socket and TCP flow control pushes back on the sender, so a
// ring of capacity k preserves the k-bounded execution model the protocols
// were verified under.
//
// Close semantics cross the wire as a goodbye frame: CloseWithError(cause)
// drains buffered messages, then carries the cause so the remote peer's
// receives fail with a *channel.CloseError unwrapping to the cause —
// byte-for-byte the contract of the in-memory substrates. A connection
// that drops without a goodbye surfaces as ErrDisconnected.
//
// The receive pump is one goroutine per connection: blocking reads parked
// on the Go runtime's netpoller, and blocking sends into the receive ring,
// so a full ring stops the reads until the consumer frees a slot. Reads land
// straight in the spare capacity of the half's parse buffer, which starts
// at 512 bytes and doubles while reads fill it (to 64 KiB, or further when
// one frame needs it), so a route carrying small frames holds a small
// buffer; the frames of a read are parsed in place and the incomplete tail
// is moved to the front once per read. Every
// delivery and close fires the fabric's notify hook, which cmd/sessnet
// wires to a sched.Waker so sessions parked on ErrWouldBlock are woken by
// readiness instead of sterile re-polling. A freed send slot fires it only
// after a refused TrySend: the writer notifies once per drain that follows
// a refusal, not per written frame, so a sender that never found its route
// full is not requeued for every message it sends. The hook is always
// fired with no lock held: a sched.Waker runs the woken session on the
// pump's goroutine, so the session's next Try* lands on the routes the
// pump serves.
//
// Who writes a frame, and when: a TrySend that finds nothing queued ahead
// of it (the ring empty and the writer not holding an unwritten batch)
// writes its frame to the socket itself, on the sender's goroutine, in one
// non-blocking write. If the socket takes only part of the frame, or none
// of it, the rest is handed to the writer goroutine ahead of anything
// queued later, and TrySend still returns at once. A blocking Send is
// TrySend plus a wait, so it writes directly too. Every other frame —
// TrySend behind a queue, TrySendN batches, every frame on a net.Pipe
// route, and the goodbye — is written by the writer goroutine, so batches
// keep their single writes and the goodbye still follows the last data
// frame. A stepped session woken by a delivery therefore sends
// its reply from the goroutine that read the delivery, with no goroutine
// hand-off in the round trip.
//
// The rings on both ends are built by channel.NewParkingRing: every wait
// on them (the writer's WaitRecv, the reader's Send, and a session's
// Send/Recv/WaitSend/WaitRecv) waits for socket I/O, so it parks at once
// instead of spinning and yielding the CPU the sessions need.
//
// Fabric ties the halves to a session: it listens for peers, dials them
// with retry, matches connections to routes by the wire hello handshake
// (from-role, to-role, protocol), and hands session.NewCustomNetwork a
// route maker that builds the send half, receive half, or an inert stub
// for routes not local to this process. A receive half whose peer has not
// dialed yet waits on a timer, not a goroutine: the connection's arrival
// stops it, and if the peer never dials the half fails at DialTimeout.
package netchan
