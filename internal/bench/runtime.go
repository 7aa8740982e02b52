package bench

import (
	"fmt"
	"sync"

	"repro/internal/baseline"
	"repro/internal/fft"
	"repro/internal/session"
	"repro/internal/types"
)

// Runtime identifies one of the runtime designs compared in Fig. 6: the
// paper's five, plus the RumpsteakAuto column running the machine-derived
// (internal/optimise) endpoints instead of the hand-written ones.
type Runtime int

const (
	// Sesh: binary, synchronous, per-interaction channel allocation.
	Sesh Runtime = iota
	// MultiCrusty: multiparty as a synchronous binary mesh.
	MultiCrusty
	// Ferrite: binary, asynchronous, per-interaction channel allocation.
	Ferrite
	// Rumpsteak: multiparty, asynchronous, persistent queues.
	Rumpsteak
	// RumpsteakOpt: Rumpsteak running the hand-written AMR-optimised
	// protocol, as transcribed from the paper.
	RumpsteakOpt
	// RumpsteakAuto: Rumpsteak running the AMR endpoints derived and
	// certified by the automatic optimiser — the schedule is read off the
	// derived types (see auto.go), so Fig. 6 compares hand-written against
	// machine-derived reordering head to head.
	RumpsteakAuto
	// RumpsteakGen: the sessgen-generated typed state-pattern APIs
	// (examples/gen, see gen.go): conformance enforced by the generated
	// types, no runtime monitor, message-by-message as the verified FSM
	// prescribes. This is the closest analogue of what the Rust framework
	// actually executes.
	RumpsteakGen
)

// Runtimes lists the designs in the paper's legend order (the derived-AMR
// and generated-API columns last). Every Fig. 6 workload supports every
// runtime — including FFT on the generated API, whose vec<complex128>
// column sort types the exchanges as []complex128 (examples/gen/fft); the
// old FFTRuntimes carve-out is gone.
var Runtimes = []Runtime{Sesh, MultiCrusty, Ferrite, Rumpsteak, RumpsteakOpt, RumpsteakAuto, RumpsteakGen}

func (r Runtime) String() string {
	switch r {
	case Sesh:
		return "sesh"
	case MultiCrusty:
		return "multicrusty"
	case Ferrite:
		return "ferrite"
	case Rumpsteak:
		return "rumpsteak"
	case RumpsteakOpt:
		return "rumpsteak-opt"
	case RumpsteakAuto:
		return "rumpsteak-auto"
	case RumpsteakGen:
		return "rumpsteak-gen"
	default:
		return "unknown"
	}
}

// rsNetwork is the persistent network the Rumpsteak-analogue uses: raw
// (unmonitored) session endpoints over the default lock-free SPSC ring
// substrate — persistent channels, no per-interaction allocation, matching
// the Rust framework where conformance costs nothing at run time. Each
// process grabs its endpoint once (ep) and drives it directly.
type rsNetwork struct {
	net *session.Network
}

func newRSNetwork(roles ...types.Role) *rsNetwork {
	return &rsNetwork{net: session.NewNetwork(roles...)}
}

// ep returns the (unmonitored) endpoint a process owns for the whole run.
func (n *rsNetwork) ep(role types.Role) *session.Endpoint {
	return n.net.Endpoint(role)
}

// run executes one process per role concurrently over the network's raw
// endpoints and returns the first error, errgroup-style. On error the
// network is torn down (Network.Close), so sibling processes blocked on a
// route that will never deliver fail promptly with channel.ErrClosed instead
// of deadlocking. This replaces the old panic-in-worker helpers, where one
// failed send inside a goroutine killed the whole `go test -bench` or
// cmd/fig6 process with an unrecoverable crash; a mis-wired run now fails
// the single experiment with context.
func (n *rsNetwork) run(procs map[types.Role]func(*session.Endpoint) error) error {
	var wg sync.WaitGroup
	var mu sync.Mutex
	var first error
	for role, f := range procs {
		wg.Add(1)
		go func(role types.Role, f func(*session.Endpoint) error) {
			defer wg.Done()
			if err := f(n.ep(role)); err != nil {
				mu.Lock()
				if first == nil {
					first = fmt.Errorf("bench: role %s: %w", role, err)
					n.net.Close()
				}
				mu.Unlock()
			}
		}(role, f)
	}
	wg.Wait()
	return first
}

// Streaming runs the streaming protocol once: the sink requests values until
// the source has delivered n, then the source stops. The optimised variant
// unrolls `unroll` value sends ahead of their readys (§4.1 uses 5).
// It returns the number of values transferred, the figure's throughput unit.
func Streaming(rt Runtime, n, unroll int) (int, error) {
	switch rt {
	case Sesh, Ferrite:
		return streamingBinary(rt == Ferrite, n)
	case MultiCrusty:
		return streamingMesh(n)
	case Rumpsteak:
		return streamingRumpsteak(n, 0)
	case RumpsteakOpt:
		return streamingRumpsteak(n, unroll)
	case RumpsteakAuto:
		u, err := autoStreamingUnroll(unroll)
		if err != nil {
			return 0, err
		}
		return streamingRumpsteak(n, u)
	case RumpsteakGen:
		// The schedule is baked into the generated types (the derived AMR
		// endpoint of examples/gen/streaming); unroll does not apply.
		return GenStreaming(n)
	default:
		return 0, fmt.Errorf("bench: unknown runtime %v", rt)
	}
}

func streamingBinary(async bool, n int) (int, error) {
	// One fresh one-shot channel per interaction, continuation-passing.
	ch := baseline.NewPair(async)
	var wg sync.WaitGroup
	wg.Add(1)
	received := 0
	go func() { // sink
		defer wg.Done()
		c := ch
		for {
			c = c.Send("ready", nil)
			label, _, next := c.Recv()
			if label == "stop" {
				return
			}
			received++
			c = next
		}
	}()
	// source
	c := ch
	for i := 0; ; i++ {
		label, _, next := c.Recv()
		if label != "ready" {
			return 0, fmt.Errorf("bench: source expected ready, got %s", label)
		}
		c = next
		if i == n {
			c.Send("stop", nil)
			break
		}
		c = c.Send("value", i)
	}
	wg.Wait()
	return received, nil
}

func streamingMesh(n int) (int, error) {
	m := baseline.NewMesh(false, "s", "t")
	var wg sync.WaitGroup
	wg.Add(1)
	received := 0
	go func() { // sink
		defer wg.Done()
		e := m.Endpoint("t")
		for {
			e.Send("s", "ready", nil)
			// Mesh endpoints error only on unknown peers; the mesh is
			// statically wired over {s, t}.
			label, _, _ := e.Recv("s")
			if label == "stop" {
				return
			}
			received++
		}
	}()
	e := m.Endpoint("s")
	for i := 0; ; i++ {
		if _, err := e.RecvLabel("t", "ready"); err != nil {
			return 0, err
		}
		if i == n {
			e.Send("t", "stop", nil)
			break
		}
		e.Send("t", "value", i)
	}
	wg.Wait()
	return received, nil
}

// streamingRumpsteak runs the protocol over the persistent ring network.
// With unroll = u > 0, the source sends its first u values before waiting for
// readys, consuming the outstanding readys before stopping — the verified
// AMR of protocols.OptimisedStreaming generalised to u unrolls. The unrolled
// run is a same-label burst, so it goes through the batched SendN fast path.
func streamingRumpsteak(n, unroll int) (int, error) {
	if unroll > n {
		unroll = n
	}
	net := newRSNetwork("s", "t")
	received := 0
	err := net.run(map[types.Role]func(*session.Endpoint) error{
		"t": func(e *session.Endpoint) error { // sink: unchanged by the source's AMR
			for {
				if err := e.Send("s", "ready", nil); err != nil {
					return err
				}
				label, _, err := e.Receive("s")
				if err != nil {
					return err
				}
				if label == "stop" {
					return nil
				}
				received++
			}
		},
		"s": func(e *session.Endpoint) error { // source
			if unroll > 0 {
				burst := make([]any, unroll)
				for i := range burst {
					burst[i] = i
				}
				if err := e.SendN("t", "value", burst); err != nil {
					return err
				}
			}
			for i := unroll; i < n; i++ {
				if _, _, err := e.Receive("t"); err != nil { // ready
					return err
				}
				if err := e.Send("t", "value", i); err != nil {
					return err
				}
			}
			// Drain the readys matching the unrolled sends, then the final
			// ready.
			for i := 0; i < unroll+1; i++ {
				if _, _, err := e.Receive("t"); err != nil {
					return err
				}
			}
			return e.Send("t", "stop", nil)
		},
	})
	if err != nil {
		return received, err
	}
	if received != n {
		return received, fmt.Errorf("bench: sink received %d of %d", received, n)
	}
	return received, nil
}

// DoubleBuffering runs the double-buffering protocol for two iterations of
// buffers of n values each (as in §4.1: "two iterations allows both of the
// kernel's buffers to be filled"), returning total values moved end to end.
// Buffers are modelled as n individual value messages per iteration, so the
// message count scales with n exactly as the figure's x-axis does.
func DoubleBuffering(rt Runtime, n int) (int, error) {
	const iters = 2
	switch rt {
	case Sesh, Ferrite:
		return doubleBufferingBinary(rt == Ferrite, n, iters)
	case MultiCrusty:
		return doubleBufferingMesh(n, iters)
	case Rumpsteak:
		return doubleBufferingRumpsteak(n, iters, false)
	case RumpsteakOpt:
		return doubleBufferingRumpsteak(n, iters, true)
	case RumpsteakAuto:
		opt, err := autoDoubleBufferingOptimised()
		if err != nil {
			return 0, err
		}
		return doubleBufferingRumpsteak(n, iters, opt)
	case RumpsteakGen:
		return GenDoubleBuffering(n)
	default:
		return 0, fmt.Errorf("bench: unknown runtime %v", rt)
	}
}

// doubleBufferingBinary decomposes the three-party protocol into two binary
// sessions (s↔k, k↔t), as §4.1 does for Sesh and Ferrite — without
// multiparty safety, and with per-interaction allocation.
func doubleBufferingBinary(async bool, n, iters int) (int, error) {
	sk := baseline.NewPair(async)
	kt := baseline.NewPair(async)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // source
		defer wg.Done()
		c := sk
		for it := 0; it < iters; it++ {
			_, _, next := c.Recv() // ready
			c = next
			for v := 0; v < n; v++ {
				c = c.Send("value", v)
			}
		}
	}()
	moved := 0
	go func() { // sink
		defer wg.Done()
		c := kt
		for it := 0; it < iters; it++ {
			c = c.Send("ready", nil)
			for v := 0; v < n; v++ {
				_, _, next := c.Recv()
				moved++
				c = next
			}
		}
	}()
	// kernel
	cs, ct := sk, kt
	for it := 0; it < iters; it++ {
		cs = cs.Send("ready", nil)
		buf := make([]any, 0, n)
		for v := 0; v < n; v++ {
			_, value, next := cs.Recv()
			buf = append(buf, value)
			cs = next
		}
		_, _, next := ct.Recv() // sink ready
		ct = next
		for _, value := range buf {
			ct = ct.Send("value", value)
		}
	}
	wg.Wait()
	return moved, nil
}

func doubleBufferingMesh(n, iters int) (int, error) {
	m := baseline.NewMesh(false, "k", "s", "t")
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // source
		defer wg.Done()
		e := m.Endpoint("s")
		for it := 0; it < iters; it++ {
			e.RecvLabel("k", "ready")
			for v := 0; v < n; v++ {
				e.Send("k", "value", v)
			}
		}
	}()
	moved := 0
	go func() { // sink
		defer wg.Done()
		e := m.Endpoint("t")
		for it := 0; it < iters; it++ {
			e.Send("k", "ready", nil)
			for v := 0; v < n; v++ {
				e.RecvLabel("k", "value")
				moved++
			}
		}
	}()
	e := m.Endpoint("k")
	for it := 0; it < iters; it++ {
		e.Send("s", "ready", nil)
		buf := make([]any, 0, n)
		for v := 0; v < n; v++ {
			value, err := e.RecvLabel("s", "value")
			if err != nil {
				return 0, err
			}
			buf = append(buf, value)
		}
		if _, err := e.RecvLabel("t", "ready"); err != nil {
			return 0, err
		}
		for _, value := range buf {
			e.Send("t", "value", value)
		}
	}
	wg.Wait()
	return moved, nil
}

// doubleBufferingRumpsteak runs the kernel over the persistent ring
// network; when optimised it issues the second ready immediately (Fig. 4b),
// letting the source fill the second buffer while the sink drains the
// first. The n-value buffer transfers are same-label runs, driven through
// the batched SendN/ReceiveN endpoint operations.
func doubleBufferingRumpsteak(n, iters int, optimised bool) (int, error) {
	net := newRSNetwork("k", "s", "t")
	moved := 0
	err := net.run(map[types.Role]func(*session.Endpoint) error{
		"s": func(e *session.Endpoint) error { // source
			buf := make([]any, n)
			for v := range buf {
				buf[v] = v
			}
			for it := 0; it < iters; it++ {
				if _, _, err := e.Receive("k"); err != nil { // ready
					return err
				}
				if err := e.SendN("k", "value", buf); err != nil {
					return err
				}
			}
			return nil
		},
		"t": func(e *session.Endpoint) error { // sink
			buf := make([]any, n)
			for it := 0; it < iters; it++ {
				if err := e.Send("k", "ready", nil); err != nil {
					return err
				}
				if err := e.ReceiveN("k", "value", buf); err != nil {
					return err
				}
				moved += n
			}
			return nil
		},
		"k": func(e *session.Endpoint) error { // kernel
			if optimised {
				// Anticipate the second buffer (Fig. 4b).
				if err := e.Send("s", "ready", nil); err != nil {
					return err
				}
			}
			buf := make([]any, n)
			for it := 0; it < iters; it++ {
				if !optimised || it+1 < iters {
					if err := e.Send("s", "ready", nil); err != nil {
						return err
					}
				}
				if err := e.ReceiveN("s", "value", buf); err != nil {
					return err
				}
				if _, _, err := e.Receive("t"); err != nil { // sink ready
					return err
				}
				if err := e.SendN("t", "value", buf); err != nil {
					return err
				}
			}
			return nil
		},
	})
	if err != nil {
		return moved, err
	}
	return moved, nil
}

// FFTSequential runs the RustFFT-analogue: the row-wise 8-point transform of
// an n×8 matrix with no message passing. Returns rows processed.
func FFTSequential(n int) (int, error) {
	cols := randomMatrix(n)
	if err := fft.SequentialColumns(cols); err != nil {
		return 0, err
	}
	return n, nil
}

// FFTParallel runs the eight-process butterfly over the chosen runtime.
// Whole columns travel as single messages, as in the paper's implementation.
// The plain schedule has the lower partner of each exchange send first; the
// optimised (AMR) schedule has everyone send before receiving.
func FFTParallel(rt Runtime, n int) (int, error) {
	cols := randomMatrix(n)
	switch rt {
	case Sesh, Ferrite:
		return fftBinary(rt == Ferrite, cols)
	case MultiCrusty:
		return fftMesh(cols)
	case Rumpsteak:
		return fftRumpsteak(cols, false)
	case RumpsteakOpt:
		return fftRumpsteak(cols, true)
	case RumpsteakAuto:
		amr, err := autoFFTAllSendFirst()
		if err != nil {
			return 0, err
		}
		return fftRumpsteak(cols, amr)
	case RumpsteakGen:
		// The all-send-first AMR schedule is baked into the generated types
		// (examples/gen/fft); columns travel as typed vec<complex128>
		// payloads.
		if _, err := GenFFT(cols); err != nil {
			return 0, err
		}
		return len(cols[0]), nil
	default:
		return 0, fmt.Errorf("bench: unknown runtime %v", rt)
	}
}

func randomMatrix(n int) [][]complex128 {
	cols := make([][]complex128, 8)
	seed := uint64(1)
	for j := range cols {
		cols[j] = make([]complex128, n)
		for r := range cols[j] {
			// Cheap deterministic pseudo-random values; the arithmetic cost
			// is what matters, not the distribution.
			seed = seed*6364136223846793005 + 1442695040888963407
			cols[j][r] = complex(float64(int32(seed>>33))/1e9, float64(int32(seed>>13))/1e9)
		}
	}
	return cols
}

// fftWorker runs process j's three butterfly stages, exchanging columns via
// the provided send/recv functions, propagating any exchange error.
func fftWorker(j int, col []complex128, send func(stage, to int, col []complex128) error, recv func(stage, from int) ([]complex128, error), amr bool) ([]complex128, error) {
	cur := col
	for si, span := range fft.Stages(8) {
		p := fft.Partner(j, span)
		var theirs []complex128
		var err error
		if amr || j < p {
			// Optimised: everyone sends first. Plain: lower index sends
			// first (the global-type order), upper receives then replies.
			if err = send(si, p, cur); err != nil {
				return nil, err
			}
			theirs, err = recv(si, p)
		} else {
			if theirs, err = recv(si, p); err != nil {
				return nil, err
			}
			err = send(si, p, cur)
		}
		if err != nil {
			return nil, err
		}
		next := make([]complex128, len(cur))
		fft.StageOutput(8, j, span, cur, theirs, next)
		cur = next
	}
	return cur, nil
}

func fftRumpsteak(cols [][]complex128, amr bool) (int, error) {
	roles := make([]types.Role, 8)
	for j := range roles {
		roles[j] = types.Role(fmt.Sprintf("w%d", j))
	}
	net := newRSNetwork(roles...)
	out := make([][]complex128, 8)
	procs := map[types.Role]func(*session.Endpoint) error{}
	for j := 0; j < 8; j++ {
		j := j
		procs[roles[j]] = func(e *session.Endpoint) error {
			send := func(stage, to int, col []complex128) error {
				return e.Send(roles[to], "col", col)
			}
			recv := func(stage, from int) ([]complex128, error) {
				_, v, err := e.Receive(roles[from])
				if err != nil {
					return nil, err
				}
				col, ok := v.([]complex128)
				if !ok {
					return nil, fmt.Errorf("bench: fft %s received %T, want column", roles[j], v)
				}
				return col, nil
			}
			res, err := fftWorker(j, cols[j], send, recv, amr)
			if err != nil {
				return err
			}
			out[j] = res
			return nil
		}
	}
	if err := net.run(procs); err != nil {
		return 0, err
	}
	return len(cols[0]), nil
}

func fftMesh(cols [][]complex128) (int, error) {
	roles := make([]types.Role, 8)
	for j := range roles {
		roles[j] = types.Role(fmt.Sprintf("w%d", j))
	}
	m := baseline.NewMesh(false, roles...)
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for j := 0; j < 8; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			e := m.Endpoint(roles[j])
			send := func(stage, to int, col []complex128) error {
				return e.Send(roles[to], "col", col)
			}
			recv := func(stage, from int) ([]complex128, error) {
				v, err := e.RecvLabel(roles[from], "col")
				if err != nil {
					return nil, err
				}
				return v.([]complex128), nil
			}
			// Synchronous mesh cannot have both partners send first (both
			// would block); keep the ordered schedule. Errors are unreachable
			// on the statically wired mesh but recorded for uniformity.
			_, errs[j] = fftWorker(j, cols[j], send, recv, false)
		}(j)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return len(cols[0]), nil
}

// fftBinary represents the protocol as one binary session per butterfly pair
// per stage, with the extra all-pairs synchronisation §4.1 describes for the
// binary decompositions: every stage waits for all pairs of the previous
// stage to finish.
func fftBinary(async bool, cols [][]complex128) (int, error) {
	// One fresh channel per (stage, pair); plus a barrier between stages.
	chans := make([]map[[2]int]*baseline.Chan, 3)
	for si := range chans {
		chans[si] = map[[2]int]*baseline.Chan{}
	}
	for si, span := range fft.Stages(8) {
		for j := 0; j < 8; j++ {
			if p := fft.Partner(j, span); j < p {
				chans[si][[2]int{j, p}] = baseline.NewPair(async)
			}
		}
	}
	barriers := make([]*sync.WaitGroup, 3)
	for i := range barriers {
		var wg sync.WaitGroup
		wg.Add(8)
		barriers[i] = &wg
	}
	var wg sync.WaitGroup
	for j := 0; j < 8; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			cur := cols[j]
			for si, span := range fft.Stages(8) {
				p := fft.Partner(j, span)
				lo, hi := j, p
				if lo > hi {
					lo, hi = hi, lo
				}
				ch := chans[si][[2]int{lo, hi}]
				var theirs []complex128
				if j == lo {
					next := ch.Send("col", cur)
					_, v, _ := next.Recv()
					theirs = v.([]complex128)
				} else {
					_, v, next := ch.Recv()
					theirs = v.([]complex128)
					next.Send("col", cur)
				}
				out := make([]complex128, len(cur))
				fft.StageOutput(8, j, span, cur, theirs, out)
				cur = out
				// Global synchronisation between stages (the cost of the
				// binary decomposition).
				barriers[si].Done()
				barriers[si].Wait()
			}
		}(j)
	}
	wg.Wait()
	return len(cols[0]), nil
}
