// Package workpool provides the bounded work-stealing worker pool shared by
// the simulation data plane and the campaign control plane. The rounds of a
// replica-sharded sweep (sim.ShardGroup, driven by casestudy.ShardedSweep)
// and the campaign dispatcher's CPU-bound run execution (internal/sched) all
// draw from one process-wide pool sized to GOMAXPROCS, so the two planes
// stop oversubscribing cores when a campaign and a sharded sweep run side by
// side.
//
// The pool is deliberately deadlock-free by construction: Go never blocks
// the submitter, and Do hands work to an idle worker only when one is
// actually parked — otherwise it runs the task inline on the calling
// goroutine. A saturated pool therefore degrades to today's behaviour
// (callers do their own work) instead of queueing behind itself. The bound
// is soft in the same way: inline execution can momentarily exceed the
// worker count, but pooled work — the steady state — never does.
package workpool

import (
	"runtime"
	"sync"

	"pos/internal/telemetry"
)

// Task is one unit of pooled work.
type Task func()

// Pool is a bounded set of workers with per-worker deques. Owners pop their
// own deque LIFO (fresh tasks are cache-hot); idle workers steal FIFO from
// the other deques (old tasks are the fairest to migrate).
type Pool struct {
	mu       sync.Mutex
	cond     *sync.Cond
	deques   [][]Task
	handoffs []*handoff
	rr       int
	sleeping int
	closed   bool
	wg       sync.WaitGroup

	submitted uint64
	stolen    uint64
	inline    uint64
	handedOff uint64
}

// handoff is a Do submission accepted by a parked worker; done closes when
// the task finished so the submitter can return.
type handoff struct {
	t    Task
	done chan struct{}
}

// Stats is a snapshot of the pool's activity counters.
type Stats struct {
	Workers   int
	Submitted uint64 // tasks accepted by Go
	Stolen    uint64 // tasks executed by a worker other than the deque owner
	Inline    uint64 // Do tasks run on the caller because no worker was idle
	HandedOff uint64 // Do tasks run by a parked worker
}

// New starts a pool with n workers (at least 1).
func New(n int) *Pool {
	if n < 1 {
		n = 1
	}
	p := &Pool{deques: make([][]Task, n)}
	p.cond = sync.NewCond(&p.mu)
	poolWorkers.Add(float64(n))
	p.wg.Add(n)
	for i := 0; i < n; i++ {
		go p.worker(i)
	}
	return p
}

var (
	defaultOnce sync.Once
	defaultPool *Pool
)

// Default returns the process-wide pool, sized to GOMAXPROCS at first use.
// It is never closed; every subsystem that wants to share cores with the
// rest of the process schedules through it.
func Default() *Pool {
	defaultOnce.Do(func() { defaultPool = New(runtime.GOMAXPROCS(0)) })
	return defaultPool
}

// Size reports the number of workers.
func (p *Pool) Size() int { return len(p.deques) }

// Idle reports how many workers are parked with no pending handoff claiming
// them — the number of Do calls that would currently hand off instead of
// running inline.
func (p *Pool) Idle() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.sleeping - len(p.handoffs)
}

// Stats returns a snapshot of the activity counters.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return Stats{
		Workers:   len(p.deques),
		Submitted: p.submitted,
		Stolen:    p.stolen,
		Inline:    p.inline,
		HandedOff: p.handedOff,
	}
}

// Go submits t for asynchronous execution and returns immediately. Tasks are
// spread round-robin across worker deques; a parked worker is woken if one
// exists. After Close, the task still runs — on its own goroutine — so no
// submitted work is ever lost.
func (p *Pool) Go(t Task) {
	if t == nil {
		panic("workpool: nil task")
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		go t()
		return
	}
	p.submitted++
	poolTasks.Inc()
	i := p.rr % len(p.deques)
	p.rr++
	p.deques[i] = append(p.deques[i], t)
	if p.sleeping > 0 {
		p.cond.Signal()
	}
	p.mu.Unlock()
}

// Do runs t to completion before returning. When a worker is parked idle the
// task is handed to it (so pooled accounting sees it and the caller's
// goroutine stays available to its own scheduler); otherwise t runs inline
// on the caller. Do therefore never waits for pool capacity and cannot
// deadlock, whatever the pool's load.
func (p *Pool) Do(t Task) {
	if t == nil {
		panic("workpool: nil task")
	}
	p.mu.Lock()
	// A parked worker beyond those already claimed by pending handoffs can
	// take this task immediately; anything else means inline is faster and
	// safer than queueing.
	if !p.closed && p.sleeping > len(p.handoffs) {
		h := &handoff{t: t, done: make(chan struct{})}
		p.handoffs = append(p.handoffs, h)
		p.handedOff++
		poolHandoffs.Inc()
		p.cond.Signal()
		p.mu.Unlock()
		<-h.done
		return
	}
	p.inline++
	poolInline.Inc()
	p.mu.Unlock()
	t()
}

// Close wakes all workers and waits for them to drain their deques and
// exit. Only private pools (tests, scoped subsystems) call it; the Default
// pool lives for the process lifetime.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
	poolWorkers.Add(-float64(len(p.deques)))
}

func (p *Pool) worker(id int) {
	defer p.wg.Done()
	p.mu.Lock()
	for {
		if t := p.take(id); t != nil {
			p.mu.Unlock()
			t()
			p.mu.Lock()
			continue
		}
		if p.closed {
			p.mu.Unlock()
			return
		}
		p.sleeping++
		p.cond.Wait()
		p.sleeping--
	}
}

// take picks the worker's next task under p.mu: pending handoffs first
// (their submitters are blocked), then the worker's own deque tail, then a
// steal from another worker's deque head.
func (p *Pool) take(id int) Task {
	if n := len(p.handoffs); n > 0 {
		h := p.handoffs[0]
		copy(p.handoffs, p.handoffs[1:])
		p.handoffs[n-1] = nil
		p.handoffs = p.handoffs[:n-1]
		return func() {
			h.t()
			close(h.done)
		}
	}
	if dq := p.deques[id]; len(dq) > 0 {
		t := dq[len(dq)-1]
		dq[len(dq)-1] = nil
		p.deques[id] = dq[:len(dq)-1]
		return t
	}
	for off := 1; off < len(p.deques); off++ {
		v := (id + off) % len(p.deques)
		if dq := p.deques[v]; len(dq) > 0 {
			t := dq[0]
			copy(dq, dq[1:])
			dq[len(dq)-1] = nil
			p.deques[v] = dq[:len(dq)-1]
			p.stolen++
			poolSteals.Inc()
			return t
		}
	}
	return nil
}

// Telemetry: pool shape and flow, exposed at /metrics via the process-wide
// registry.
var (
	poolWorkers = telemetry.Default.Gauge("pos_workpool_workers",
		"Workers currently owned by live pools.")
	poolTasks = telemetry.Default.Counter("pos_workpool_tasks_total",
		"Tasks submitted asynchronously via Go.")
	poolSteals = telemetry.Default.Counter("pos_workpool_steals_total",
		"Tasks executed by a worker other than its deque's owner.")
	poolInline = telemetry.Default.Counter("pos_workpool_inline_total",
		"Do tasks run inline on the caller because no worker was parked.")
	poolHandoffs = telemetry.Default.Counter("pos_workpool_handoffs_total",
		"Do tasks handed to a parked worker.")
)
