package core

import (
	"strings"

	"repro/internal/fsm"
)

// entry is one transition in a prefix, lazily removable (Appendix B.5). act
// points at the action in its machine, which a check never modifies.
type entry struct {
	act     *fsm.Action
	removed bool
}

// prefix is a SISO session prefix π represented as a list of lazily-removable
// transitions. Elements are removed either by advancing start (when they are
// at the head) or by setting their removed flag and recording the index, so
// that a snapshot can restore the prefix in O(changes) without copying.
//
// Invariant: if the prefix is non-empty then entries[start] is not removed.
type prefix struct {
	entries []entry
	start   int
	removed []int
}

// snapshot records the three sizes needed to revert a prefix (Appendix B.5).
type snapshot struct {
	size    int // len(entries) at snapshot time
	start   int
	removed int // len(removed) at snapshot time
}

// reset empties the prefix, keeping its buffers' capacity.
func (p *prefix) reset() {
	p.entries = p.entries[:0]
	p.start = 0
	p.removed = p.removed[:0]
}

func (p *prefix) push(a *fsm.Action) {
	p.entries = append(p.entries, entry{act: a})
}

func (p *prefix) empty() bool { return p.start >= len(p.entries) }

// head returns the first live transition. Callers must check empty first.
func (p *prefix) head() *fsm.Action { return p.entries[p.start].act }

// normalize advances start past removed entries, maintaining the invariant.
func (p *prefix) normalize() {
	for p.start < len(p.entries) && p.entries[p.start].removed {
		p.start++
	}
}

// popHead removes the head transition by advancing start.
func (p *prefix) popHead() {
	p.start++
	p.normalize()
}

// removeAt removes the entry at index i. If i is the head the start index is
// advanced; otherwise the entry is lazily flagged.
func (p *prefix) removeAt(i int) {
	if i == p.start {
		p.popHead()
		return
	}
	p.entries[i].removed = true
	p.removed = append(p.removed, i)
}

func (p *prefix) snapshot() snapshot {
	return snapshot{size: len(p.entries), start: p.start, removed: len(p.removed)}
}

// restore reverts the prefix to a previously taken snapshot: entries removed
// since are resurrected, appended entries truncated and start reset.
func (p *prefix) restore(s snapshot) {
	for _, i := range p.removed[s.removed:] {
		p.entries[i].removed = false
	}
	p.removed = p.removed[:s.removed]
	p.entries = p.entries[:s.size]
	p.start = s.start
}

// live returns the live transitions (those not removed), starting at start.
// Used for the assumption check and for diagnostics.
func (p *prefix) live() []fsm.Action {
	var out []fsm.Action
	for i := p.start; i < len(p.entries); i++ {
		if !p.entries[i].removed {
			out = append(out, *p.entries[i].act)
		}
	}
	return out
}

// liveEqualAt reports whether the live suffix now equals the live suffix at
// the time snapshot s was taken. Entries present at snapshot time but lazily
// removed since were live then, so they are compared against the snapshot
// window with their flags ignored up to s.removed changes... concretely: the
// snapshot window is entries[s.start:s.size] with the removal flags recorded
// *before* index s.removed, which restore would resurrect. We therefore
// reconstruct liveness of the snapshot window from the removed log.
func (p *prefix) liveEqualAt(s snapshot) bool {
	// Removals logged after s.removed happened after the snapshot; the log
	// segment is short, so a linear scan beats building a set.
	removedSince := p.removed[s.removed:]
	wasLiveAtSnapshot := func(j int) bool {
		if !p.entries[j].removed {
			return true
		}
		for _, r := range removedSince {
			if r == j {
				return true
			}
		}
		return false
	}
	// Walk the two live sequences in lock step.
	i := p.start // current window
	j := s.start // snapshot window
	for {
		// Advance i to next currently-live entry.
		for i < len(p.entries) && p.entries[i].removed {
			i++
		}
		// Advance j to next snapshot-live entry: live at snapshot time means
		// not removed now, or removed after the snapshot.
		for j < s.size && !wasLiveAtSnapshot(j) {
			j++
		}
		iDone := i >= len(p.entries)
		jDone := j >= s.size
		if iDone || jDone {
			return iDone && jDone
		}
		if a, b := p.entries[i].act, p.entries[j].act; a != b && *a != *b {
			return false
		}
		i++
		j++
	}
}

func (p *prefix) String() string {
	live := p.live()
	parts := make([]string, len(live))
	for i, a := range live {
		parts[i] = a.String()
	}
	return strings.Join(parts, ".")
}
