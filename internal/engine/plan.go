package engine

import (
	"cmp"
	"slices"
	"time"

	"schemble/internal/core"
	"schemble/internal/ensemble"
	"schemble/internal/qos"
)

// blockHorizon is how far into the future a blocked model's replicas are
// pushed in the capacity the scheduler sees: far enough that no
// deadline-feasible plan can include it.
const blockHorizon = time.Hour

// member is a buffered request in a planning group, at its service level.
type member[R Request] struct {
	r   R
	lvl qos.Level
}

// Buffer appends a scored request to the query buffer.
func (e *Engine[R]) Buffer(r R) { e.buffer = append(e.buffer, r) }

// Len is the number of buffered requests.
func (e *Engine[R]) Len() int { return len(e.buffer) }

// Remove drops r from the buffer (its deadline passed uncommitted) and
// reports whether it was buffered.
func (e *Engine[R]) Remove(r R) bool {
	t := r.Ticket()
	for i, b := range e.buffer {
		if b.Ticket() == t {
			e.buffer = slices.Delete(e.buffer, i, i+1)
			return true
		}
	}
	return false
}

// Flush empties the buffer, handing every request it held to resolve in
// buffer order.
func (e *Engine[R]) Flush(resolve func(R)) {
	for _, r := range e.buffer {
		resolve(r)
	}
	clear(e.buffer)
	e.buffer = e.buffer[:0]
}

// Plan runs one planning pass at virtual time now and returns how many
// requests left the buffer (committed or rejected). It feeds the overload
// controller the backlog and the previous pass's slack, refreshes the
// cost vector from the adaptation layer, then plans the buffer: as one
// group with the configured scheduler when classless; otherwise split by
// ladder level, full and capped classes with the configured scheduler,
// then greedy classes with the greedy planner against the capacity the
// protected tiers left. A class that climbed to shed after admission is
// clamped to greedy — admission decisions are not retroactive.
func (e *Engine[R]) Plan(now time.Duration, ex Executor[R]) int {
	e.qos.Observe(now, len(e.buffer)+ex.Backlog(), e.slack)
	if e.adapt != nil {
		// One consistent cost view for the whole pass.
		e.adapt.ExecInto(e.exec)
	}
	if len(e.buffer) == 0 {
		return 0
	}
	blocked := ex.Blocked(now)
	e.main, e.deg = e.main[:0], e.deg[:0]
	for _, r := range e.buffer {
		lvl := qos.LevelFull
		if e.greedy != nil {
			lvl = min(e.qos.Level(r.Ticket().Class), qos.LevelGreedy)
		}
		if lvl == qos.LevelGreedy {
			e.deg = append(e.deg, member[R]{r, lvl})
		} else {
			e.main = append(e.main, member[R]{r, lvl})
		}
	}
	if len(e.main) > 0 {
		e.commit(now, ex, e.sched, e.main, blocked)
	}
	if len(e.deg) > 0 {
		e.commit(now, ex, e.greedy, e.deg, blocked)
	}
	planned := len(e.buffer)
	e.buffer = slices.DeleteFunc(e.buffer, func(r R) bool { return r.Ticket().taken })
	e.slack = float64(len(e.buffer)) / float64(planned)
	return planned - len(e.buffer)
}

// commit plans one group and walks it in EDF order (deadline, then ID).
// A request commits as soon as one of its planned models has an idle
// replica; its other tasks queue behind busy replicas. Blocked models
// are stripped from the plan (a subset the mask empties stays buffered)
// and a ladder level above full truncates the subset to the level's cap,
// keeping the cheapest models.
func (e *Engine[R]) commit(now time.Duration, ex Executor[R], sched core.Scheduler, group []member[R], blocked ensemble.Subset) {
	e.infos = e.infos[:0]
	for _, m := range group {
		t := m.r.Ticket()
		e.infos = append(e.infos, core.QueryInfo{ID: t.ID, Arrival: t.Arrival, Deadline: t.Deadline, Score: t.Score})
	}
	plan := sched.Schedule(now, e.infos, e.capacity(now, ex, blocked), e.exec, e.rew)
	slices.SortFunc(group, edf[R])
	for _, m := range group {
		t := m.r.Ticket()
		sub := plan.Subset(t.ID) &^ blocked
		if sub == ensemble.Empty {
			continue
		}
		if m.lvl > qos.LevelFull {
			sub = qos.TruncateSubset(sub, qos.SubsetCap(m.lvl, e.ens.M()), e.exec)
		}
		if !anyIdle(now, ex, sub) {
			continue
		}
		t.Level = m.lvl
		t.taken = true
		if !ex.Dispatch(m.r, sub) {
			ex.Reject(m.r)
		}
	}
}

// edf orders planning-group members by deadline, then ID.
func edf[R Request](a, b member[R]) int {
	ta, tb := a.r.Ticket(), b.r.Ticket()
	if c := cmp.Compare(ta.Deadline, tb.Deadline); c != 0 {
		return c
	}
	return cmp.Compare(ta.ID, tb.ID)
}

// anyIdle reports whether some model in sub has an idle replica at now.
func anyIdle[R Request](now time.Duration, ex Executor[R], sub ensemble.Subset) bool {
	for k := 0; sub>>uint(k) != 0; k++ {
		if sub.Contains(k) && ex.Idle(now, k) {
			return true
		}
	}
	return false
}

// capacity is the executor's availability view with every blocked model's
// replicas pushed blockHorizon past now, so the scheduler plans around it.
func (e *Engine[R]) capacity(now time.Duration, ex Executor[R], blocked ensemble.Subset) core.Capacity {
	avail := ex.Capacity()
	if blocked == ensemble.Empty {
		return avail
	}
	if len(e.pushed) < len(avail) {
		e.pushed = make([][]time.Duration, len(avail))
	}
	e.avail = append(e.avail[:0], avail...)
	for k, slots := range avail {
		if blocked.Contains(k) {
			e.pushed[k] = e.pushed[k][:0]
			for range slots {
				e.pushed[k] = append(e.pushed[k], now+blockHorizon)
			}
			e.avail[k] = e.pushed[k]
		}
	}
	return e.avail
}
