package protocols

import (
	"fmt"

	"repro/internal/types"
)

// This file extends the registry beyond the paper's Table 1 with classic
// MPST case studies from the literature the paper builds on. They are not
// part of the reproduced evaluation, but they exercise the toolchain —
// projection, subtyping, k-MC, execution — on richer shapes (fan-out/fan-in,
// nested recursion, delegated decisions) and ship as ready-made protocols
// for library users.

// ExtraRegistry returns the additional protocols. Entries follow the same
// conventions as Registry.
func ExtraRegistry() []Entry {
	return []Entry{
		TwoBuyer(),
		TravelAgency(),
		ScatterGather(4),
		PipelineEntry(4),
		OAuthLike(),
	}
}

// TwoBuyer is the classic two-buyer protocol (Honda, Yoshida, Carbone): b1
// asks a seller for a quote, shares the price with b2, and b2 decides to buy
// or quit.
func TwoBuyer() Entry {
	g := mpg(`b1->s:title(str).s->b1:quote(i32).b1->b2:share(i32).
	          b2->s:{buy(str).s->b2:date(str).end, quit.end}`)
	return Entry{
		Name: "Two Buyer", Ref: "[29]", Participants: 3,
		Global: g,
		Locals: locals(
			"b1", mp("s!title(str).s?quote(i32).b2!share(i32).end"),
			"b2", mp("b1?share(i32).s!{buy(str).s?date(str).end, quit.end}"),
			"s", mp("b1?title(str).b1!quote(i32).b2?{buy(str).b2!date(str).end, quit.end}"),
		),
		Choice: true, KmcBound: 1,
	}
}

// TravelAgency is the customer/agency/service booking protocol: the customer
// haggles in a loop, then either accepts (and the service confirms directly
// to the customer) or rejects. The service hears a hold message on every
// haggling round, keeping the protocol projectable onto the observer.
func TravelAgency() Entry {
	g := mpg(`mu t.c->a:{query(str).a->s:hold.a->c:price(i32).t,
	                     accept.a->s:book(str).s->c:confirm(i32).end,
	                     reject.a->s:cancel.s->c:bye.end}`)
	return Entry{
		Name: "Travel Agency", Ref: "[31]", Participants: 3,
		Global: g,
		Locals: locals(
			"c", mp("mu t.a!{query(str).a?price(i32).t, accept.s?confirm(i32).end, reject.s?bye.end}"),
			"a", mp("mu t.c?{query(str).s!hold.c!price(i32).t, accept.s!book(str).end, reject.s!cancel.end}"),
			"s", mp("mu t.a?{hold.t, book(str).c!confirm(i32).end, cancel.c!bye.end}"),
		),
		Choice: true, Rec: true, KmcBound: 1,
	}
}

// ScatterGather is a coordinator fanning a task out to n workers and
// gathering their results — the fan-out/fan-in shape of map-reduce rounds.
// The AMR optimisation lets the coordinator scatter *all* tasks before
// gathering any result; the unoptimised projection interleaves them.
func ScatterGather(n int) Entry {
	if n < 1 {
		panic("protocols: scatter-gather needs at least one worker")
	}
	// Global: task to w1 .. task to wn, then result from w1 .. wn.
	var g types.Global = types.GEnd{}
	for i := n - 1; i >= 0; i-- {
		g = types.GComm(sgWorker(i), "c", "result", types.I64, g)
	}
	for i := n - 1; i >= 0; i-- {
		g = types.GComm("c", sgWorker(i), "task", types.I64, g)
	}
	ls := map[types.Role]types.Local{}
	// Coordinator projection: all sends in order, then all receives (the
	// global order above already scatters first — so the projection is
	// itself the optimised schedule; the *sequential* coordinator used as
	// the baseline interleaves task/result per worker).
	var coord types.Local = types.End{}
	for i := n - 1; i >= 0; i-- {
		coord = types.LRecv(sgWorker(i), "result", types.I64, coord)
	}
	for i := n - 1; i >= 0; i-- {
		coord = types.LSend(sgWorker(i), "task", types.I64, coord)
	}
	ls["c"] = coord
	for i := 0; i < n; i++ {
		ls[sgWorker(i)] = types.LRecv("c", "task", types.I64,
			types.LSend("c", "result", types.I64, types.End{}))
	}
	return Entry{
		Name: fmt.Sprintf("Scatter-Gather (%d workers)", n), Ref: "", Participants: n + 1,
		Global:   g,
		Locals:   ls,
		KmcBound: 1,
	}
}

func sgWorker(i int) types.Role { return types.Role(fmt.Sprintf("w%d", i)) }

// PipelineEntry is an n-stage pipeline: stage i receives from its
// predecessor and forwards to its successor, forever.
func PipelineEntry(n int) Entry {
	if n < 2 {
		panic("protocols: pipeline needs at least 2 stages")
	}
	var body types.Global = types.GVar{Name: "t"}
	for i := n - 2; i >= 0; i-- {
		body = types.GComm(plStage(i), plStage(i+1), "item", types.I64, body)
	}
	g := types.GRec{Name: "t", Body: body}
	ls := map[types.Role]types.Local{}
	for i := 0; i < n; i++ {
		var l types.Local
		switch i {
		case 0:
			l = types.Rec{Name: "t", Body: types.LSend(plStage(1), "item", types.I64, types.Var{Name: "t"})}
		case n - 1:
			l = types.Rec{Name: "t", Body: types.LRecv(plStage(n-2), "item", types.I64, types.Var{Name: "t"})}
		default:
			l = types.Rec{Name: "t", Body: types.LRecv(plStage(i-1), "item", types.I64,
				types.LSend(plStage(i+1), "item", types.I64, types.Var{Name: "t"}))}
		}
		ls[plStage(i)] = l
	}
	// AMR for interior stages: forward the previous item before waiting for
	// the next — a one-item software pipeline register.
	opt := map[types.Role]types.Local{}
	for i := 1; i < n-1; i++ {
		opt[plStage(i)] = types.LSend(plStage(i+1), "item", types.I64, ls[plStage(i)])
	}
	return Entry{
		Name: fmt.Sprintf("Pipeline (%d stages)", n), Ref: "", Participants: n,
		Global:    g,
		Locals:    ls,
		Optimised: opt,
		Rec:       true, InfiniteRec: true, AMR: len(opt) > 0, KmcBound: 2,
	}
}

func plStage(i int) types.Role { return types.Role(fmt.Sprintf("p%d", i)) }

// OAuthLike is a three-party authorisation dance with nested choice: the
// client asks an authoriser, which may challenge (loop), grant (introducing
// the resource) or refuse. The resource server is told about every retry
// (wait) so that the protocol stays projectable — the standard mergeability
// fix for observers of a loop.
func OAuthLike() Entry {
	g := mpg(`mu t.c->a:{request(str).a->c:{challenge(str).a->r:wait.c->a:answer(str).t,
	                                        grant.a->r:token(str).r->c:resource(str).end,
	                                        refuse.a->r:deny.r->c:sorry.end}}`)
	return Entry{
		Name: "OAuth-like", Ref: "", Participants: 3,
		Global: g,
		Locals: locals(
			"c", mp("mu t.a!request(str).a?{challenge(str).a!answer(str).t, grant.r?resource(str).end, refuse.r?sorry.end}"),
			"a", mp("mu t.c?request(str).c!{challenge(str).r!wait.c?answer(str).t, grant.r!token(str).end, refuse.r!deny.end}"),
			"r", mp("mu t.a?{wait.t, token(str).c!resource(str).end, deny.c!sorry.end}"),
		),
		Choice: true, Rec: true, KmcBound: 1,
	}
}
