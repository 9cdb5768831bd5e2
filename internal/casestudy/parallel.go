package casestudy

import (
	"errors"
	"fmt"

	"pos/internal/loadgen"
	"pos/internal/sim"
)

// SweepPoints flattens a sweep into its (size, rate) measurement points in
// campaign order: sizes outer, rates inner — the same order the appendix
// workflow's loop variables enumerate.
func SweepPoints(cfg SweepConfig) [][2]float64 {
	pts := make([][2]float64, 0, len(cfg.Sizes)*len(cfg.RatesPPS))
	for _, s := range cfg.Sizes {
		for _, r := range cfg.RatesPPS {
			pts = append(pts, [2]float64{float64(s), float64(r)})
		}
	}
	return pts
}

// ShardedSweep runs every point of the sweep, dealt round-robin across the
// replica topologies (built with NewReplicas) and executed in parallel on a
// sim.ShardGroup — one shard per replica timeline. Results come back in
// campaign order regardless of sharding.
//
// Each shard's subsequence is exactly what sequential DirectRun calls on
// that replica would produce: the shard driver chains runs back-to-back on
// the replica's own engine, so determinism is per-replica, independent of
// GOMAXPROCS and scheduling.
func ShardedSweep(topos []*Topology, cfg SweepConfig) ([]RunPoint, error) {
	if len(topos) == 0 {
		return nil, fmt.Errorf("casestudy: sharded sweep needs at least one topology")
	}
	runtime := cfg.RuntimeSec
	if runtime <= 0 {
		runtime = 2
	}
	pts := SweepPoints(cfg)
	out := make([]RunPoint, len(pts))
	group := sim.NewShardGroup()
	states := make([]*sweepShard, len(topos))
	for i, t := range topos {
		st := &sweepShard{topo: t, out: out, runtime: runtime}
		for p := i; p < len(pts); p += len(topos) {
			st.points = append(st.points, p)
			st.cfgs = append(st.cfgs, pts[p])
		}
		states[i] = st
		group.AddEngine(t.Engine, st.drive)
	}
	if err := group.Run(); err != nil {
		return nil, err
	}
	errs := make([]error, 0, len(states))
	for _, st := range states {
		if st.err != nil {
			errs = append(errs, st.err)
		}
	}
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return out, nil
}

// sweepShard is one replica's slice of the sweep.
type sweepShard struct {
	topo    *Topology
	points  []int        // indices into the campaign-order result slice
	cfgs    [][2]float64 // (size, rate) per point
	runtime float64
	next    int
	ar      *loadgen.ActiveRun
	err     error
	out     []RunPoint
}

// drive is the shard's idle callback: finalize the run that just drained,
// then start the next point.
func (st *sweepShard) drive(_ *sim.Shard, _ sim.Time) bool {
	if st.ar != nil {
		res, err := st.ar.Result()
		st.ar = nil
		if err != nil {
			st.err = err
			return false
		}
		idx := st.points[st.next-1]
		size, rate := st.cfgs[st.next-1][0], st.cfgs[st.next-1][1]
		st.out[idx] = RunPoint{
			Flavor:     st.topo.Flavor,
			FrameSize:  int(size),
			OfferedPPS: rate,
			TxMpps:     res.TxRatePPS / 1e6,
			RxMpps:     res.RxRatePPS / 1e6,
			LossRatio:  res.LossRatio(),
			LatencyOK:  res.LatencyAvailable,
		}
	}
	if st.next >= len(st.points) {
		return false
	}
	size, rate := st.cfgs[st.next][0], st.cfgs[st.next][1]
	st.next++
	st.topo.Router.SetForwarding(true)
	cfg := moonGenConfig{frameSize: int(size)}
	cfg.RatePPS = rate
	cfg.Duration = sim.Duration(st.runtime * float64(sim.Second))
	cfg.Template = st.topo.template(int(size))
	ar, err := st.topo.Gen.Start(cfg.RunConfig)
	if err != nil {
		st.err = err
		return false
	}
	st.ar = ar
	return true
}
