package sim

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"

	"pos/internal/workpool"
)

// ShardGroup runs several independent engines — the replica testbeds of a
// campaign — in parallel. Rounds execute on the process-wide workpool
// (shared with the campaign dispatcher), with the calling goroutine
// participating, so shard parallelism is bounded by the same worker budget
// as everything else.
//
// The timelines never exchange events, so no synchronization window is
// needed: each round every shard free-runs to quiescence, calling its driver
// whenever the engine goes idle. Rounds only delimit driver turns; a shard
// whose driver expects more work but has none yet is asked again next round.
// What each shard executes depends on its own engine and driver alone, so
// results are independent of GOMAXPROCS and thread scheduling.
type ShardGroup struct {
	shards []*Shard

	running atomic.Bool
	windows atomic.Uint64
	stalls  atomic.Uint64
}

// Driver is a shard's idle callback: invoked whenever its engine goes
// quiescent inside a round, it schedules the next unit of work (e.g. the
// next measurement run of a sweep) and reports whether more work remains.
type Driver func(s *Shard, now Time) bool

// Shard is one engine registered with a group.
type Shard struct {
	engine *Engine
	idx    int
	driver Driver
	done   bool
	err    error

	// stepsAt is the engine's step count at the start of the current
	// round, written single-threaded between rounds.
	stepsAt uint64
}

// NewShardGroup returns an empty group.
func NewShardGroup() *ShardGroup {
	return &ShardGroup{}
}

// AddEngine registers an engine with an optional idle driver and returns its
// shard handle. All engines must be added before Run.
func (g *ShardGroup) AddEngine(e *Engine, driver Driver) *Shard {
	s := &Shard{engine: e, idx: len(g.shards), driver: driver}
	g.shards = append(g.shards, s)
	return s
}

// Engine returns the shard's engine. Outside Run it may be used freely; while
// the group runs it is owned by whichever worker executes the shard's round.
func (s *Shard) Engine() *Engine { return s.engine }

// Err returns the shard's terminal error, if any, after Run completes.
func (s *Shard) Err() error { return s.err }

// Windows reports how many shard-rounds the group has executed.
func (g *ShardGroup) Windows() uint64 { return g.windows.Load() }

// Stalls reports how many of those rounds executed zero events on a shard
// that was not done while the group kept running — a driver waiting for
// work.
func (g *ShardGroup) Stalls() uint64 { return g.stalls.Load() }

// Run executes all shards to completion: every engine quiescent and every
// driver exhausted. Rounds are executed by workpool workers with the calling
// goroutine participating, so progress never depends on pool capacity. It
// returns the join of shard errors. Run may be called again after it
// returns (e.g. one call per measurement run).
func (g *ShardGroup) Run() error {
	if len(g.shards) == 0 {
		return nil
	}
	if !g.running.CompareAndSwap(false, true) {
		return errors.New("sim: ShardGroup.Run called re-entrantly")
	}
	defer g.running.Store(false)
	shardGroupsActive.Inc()
	defer shardGroupsActive.Dec()
	for _, s := range g.shards {
		s.done, s.err = false, nil
	}
	r := &groupRun{
		g:     g,
		ready: make(chan *Shard, len(g.shards)),
		done:  make(chan struct{}),
	}
	// One method-value conversion for the whole run, not one per pool
	// submission.
	r.turn = r.poolTurn
	// The caller always covers one turn per round and drains the rest from
	// the ready channel, so pool helpers are an optimization, never a
	// correctness requirement. At most GOMAXPROCS-1 of them can execute
	// concurrently with the caller; submitting more just burns scheduler
	// wakeups — on a single-proc host rounds run entirely inline.
	r.maxHelpers = runtime.GOMAXPROCS(0) - 1
	if n := len(g.shards) - 1; n < r.maxHelpers {
		r.maxHelpers = n
	}
	if r.maxHelpers == 0 {
		// Serial fast path: with no helpers to coordinate, the ready
		// channel and the remaining counter are pure overhead — drive the
		// rounds inline on the caller.
		for {
			r.prepareRound()
			for _, s := range g.shards {
				s.runRound()
			}
			if r.advanceRound() {
				return r.join()
			}
		}
	}
	r.launch()
	for {
		select {
		case s := <-r.ready:
			r.runShard(s)
		case <-r.done:
			return r.join()
		}
	}
}

// join collects the shards' terminal errors after the run has finished.
func (r *groupRun) join() error {
	errs := make([]error, 0, len(r.g.shards))
	for _, s := range r.g.shards {
		if s.err != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", s.idx, s.err))
		}
	}
	return errors.Join(errs...)
}

// groupRun is the state of one Run invocation. Keeping it separate from the
// group makes stale pool tasks from a finished run harmless: they find an
// empty ready channel and return.
type groupRun struct {
	g          *ShardGroup
	ready      chan *Shard
	done       chan struct{}
	remaining  atomic.Int32
	turn       func() // poolTurn as a pre-bound task, allocated once per Run
	maxHelpers int    // pool turns worth recruiting beyond the caller
}

// prepareRound records each shard's step watermark. It runs
// single-threaded, before any shard of the round executes.
func (r *groupRun) prepareRound() {
	for _, s := range r.g.shards {
		s.stepsAt = s.engine.Steps()
	}
}

// launch prepares a round and publishes every shard to the ready channel;
// pool workers take all but one turn (the caller covers it). It runs
// single-threaded: from Run, or from the round-closer.
func (r *groupRun) launch() {
	g := r.g
	r.prepareRound()
	r.remaining.Store(int32(len(g.shards)))
	for _, s := range g.shards {
		r.ready <- s
	}
	if helpers := r.maxHelpers; helpers > 0 {
		pool := workpool.Default()
		if idle := pool.Idle(); idle < helpers {
			helpers = idle
		}
		for i := 0; i < helpers; i++ {
			pool.Go(r.turn)
		}
	}
}

// poolTurn is the task submitted to the workpool for each shard of a round:
// take one ready shard if any remain and run its phase.
func (r *groupRun) poolTurn() {
	select {
	case s := <-r.ready:
		r.runShard(s)
	default:
	}
}

// runShard executes one shard's round; the last finisher closes the round.
func (r *groupRun) runShard(s *Shard) {
	s.runRound()
	if r.remaining.Add(-1) == 0 {
		r.closeRound()
	}
}

// closeRound runs single-threaded on the round's last finisher. The atomic
// remaining counter orders all shard work before it; the ready channel
// orders it before the next round's shard work.
func (r *groupRun) closeRound() {
	if r.advanceRound() {
		close(r.done)
		return
	}
	r.launch()
}

// advanceRound votes on termination and reports whether the group is
// finished.
func (r *groupRun) advanceRound() bool {
	g := r.g
	n := len(g.shards)
	g.windows.Add(uint64(n))
	shardWindows.Add(float64(n))
	allDone, anyActive := true, false
	for _, s := range g.shards {
		done := s.err != nil || (s.done && s.engine.Len() == 0)
		// A shard is active while it stepped this round or still holds
		// work; the group terminates when every shard is done — or when no
		// shard is active, i.e. nothing can ever happen again even though
		// some drivers are still waiting.
		active := s.engine.Steps() != s.stepsAt || s.engine.Len() > 0
		allDone = allDone && done
		anyActive = anyActive || active
	}
	if allDone || !anyActive {
		return true
	}
	for _, s := range g.shards {
		if !s.done && s.engine.Steps() == s.stepsAt {
			g.stalls.Add(1)
			shardStallWindows.Inc()
		}
	}
	return false
}

// runRound is one shard's slice of a round: run to quiescence, invoking the
// driver whenever the engine goes idle. Panics become shard errors.
func (s *Shard) runRound() {
	defer func() {
		if rec := recover(); rec != nil {
			s.err = fmt.Errorf("panic: %v", rec)
			s.done = true
		}
	}()
	for s.err == nil && !s.done {
		if err := s.engine.Run(); err != nil {
			s.err = err
			s.done = true
			return
		}
		if s.driver == nil || !s.driver(s, s.engine.Now()) {
			s.done = true
			return
		}
		if s.engine.Len() == 0 {
			// The driver expects more work but has nothing to run yet;
			// yield the round instead of spinning on an empty engine.
			return
		}
	}
}
