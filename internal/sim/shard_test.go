package sim

import (
	"errors"
	"fmt"
	"testing"
)

// Sharded execution of independent timelines must produce exactly the state
// a sequential run would: same event times, same per-engine order.
func TestShardGroupMatchesSequentialRun(t *testing.T) {
	run := func(e *Engine, log *[]Time) {
		for i := 0; i < 50; i++ {
			at := Time(i * 7)
			e.At(at, func(now Time) { *log = append(*log, now) })
		}
		e.Ticks(3, 11, 20, func(now Time) { *log = append(*log, now) })
	}
	var want []Time
	seq := NewEngine()
	run(seq, &want)
	if err := seq.Run(); err != nil {
		t.Fatal(err)
	}

	g := NewShardGroup()
	logs := make([][]Time, 4)
	for i := range logs {
		e := NewEngine()
		run(e, &logs[i])
		g.AddEngine(e, nil)
	}
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	for i, log := range logs {
		if len(log) != len(want) {
			t.Fatalf("shard %d: %d events, want %d", i, len(log), len(want))
		}
		for j := range want {
			if log[j] != want[j] {
				t.Fatalf("shard %d event %d at %v, want %v", i, j, log[j], want[j])
			}
		}
	}
}

// Drivers chain work: each idle callback schedules the next phase, so a
// shard can run a whole sweep of back-to-back measurement runs.
func TestShardDriverChainsWork(t *testing.T) {
	e := NewEngine()
	g := NewShardGroup()
	phases := 0
	var ends []Time
	g.AddEngine(e, func(s *Shard, now Time) bool {
		ends = append(ends, now)
		if phases == 3 {
			return false
		}
		phases++
		e.At(now.Add(10), func(Time) {})
		return true
	})
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	if phases != 3 {
		t.Fatalf("driver ran %d phases, want 3", phases)
	}
	if e.Now() != 30 {
		t.Fatalf("clock at %v, want 30", e.Now())
	}
}

// A shard that errors must not deadlock the barrier; the group drains and
// reports the failure.
func TestShardErrorPropagates(t *testing.T) {
	g := NewShardGroup()
	bad := NewEngine()
	bad.At(5, func(Time) { panic("boom") })
	g.AddEngine(bad, nil)
	good := NewEngine()
	n := 0
	good.At(5, func(Time) { n++ })
	g.AddEngine(good, nil)
	err := g.Run()
	if err == nil {
		t.Fatal("expected error from panicking shard")
	}
	if n != 1 {
		t.Fatal("healthy shard did not finish")
	}
	if g.shards[0].Err() == nil || g.shards[1].Err() != nil {
		t.Fatalf("error attribution wrong: %v / %v", g.shards[0].Err(), g.shards[1].Err())
	}
}

func TestShardStopError(t *testing.T) {
	g := NewShardGroup()
	e := NewEngine()
	e.At(1, func(Time) { e.Stop() })
	g.AddEngine(e, nil)
	err := g.Run()
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("err = %v, want ErrStopped", err)
	}
}

// Stall accounting: a shard that is done is never stalled, however long
// another shard keeps the group running.
func TestShardStallAccounting(t *testing.T) {
	g := NewShardGroup()
	long := NewEngine()
	long.Ticks(0, 10, 50, func(Time) {})
	g.AddEngine(long, nil)
	short := NewEngine()
	short.At(0, func(Time) {})
	g.AddEngine(short, nil)
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	if g.Windows() == 0 {
		t.Fatal("no windows recorded")
	}
	if g.Stalls() != 0 {
		t.Fatalf("stalls = %d, want 0 (done shards are not stalled)", g.Stalls())
	}
}

// A driver that expects more work but has none yet yields its round and is
// asked again in the next one while any shard is still active; once nothing
// is active, the group terminates even though the driver still waits.
func TestShardWaitingDriverAskedNextRound(t *testing.T) {
	g := NewShardGroup()
	busy := NewEngine()
	busy.Ticks(0, 10, 5, func(Time) {})
	g.AddEngine(busy, nil)
	e := NewEngine()
	calls := 0
	g.AddEngine(e, func(s *Shard, now Time) bool {
		calls++
		if calls == 2 {
			e.At(now.Add(7), func(Time) {})
		}
		return true // always waiting for more
	})
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	// Round 0: the busy shard steps, the driver waits (call 1). Round 1:
	// the driver schedules work (call 2), runs it and waits again (call 3);
	// the busy shard is done. Round 2: the driver waits (call 4) and no
	// shard stepped, so the group stops.
	if calls != 4 {
		t.Fatalf("driver called %d times, want 4", calls)
	}
	if e.Now() != 7 {
		t.Fatalf("clock at %v, want 7", e.Now())
	}
	// Only round 0 stalls: the driver waited while the busy shard worked.
	if g.Stalls() != 1 {
		t.Fatalf("stalls = %d, want 1", g.Stalls())
	}
}

func ExampleShardGroup() {
	g := NewShardGroup()
	for i := 0; i < 2; i++ {
		e := NewEngine()
		runs := 0
		g.AddEngine(e, func(s *Shard, now Time) bool {
			if runs == 2 {
				return false
			}
			runs++
			e.At(now.Add(100), func(Time) {})
			return true
		})
	}
	if err := g.Run(); err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println(g.shards[0].Engine().Now(), g.shards[1].Engine().Now())
	// Output: 200ns 200ns
}
