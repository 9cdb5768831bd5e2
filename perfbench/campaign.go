package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pos/internal/api"
	"pos/internal/casestudy"
	"pos/internal/core"
	"pos/internal/eval"
	"pos/internal/eventlog"
	"pos/internal/moonparse"
	"pos/internal/plot"
	"pos/internal/publish"
	"pos/internal/queue"
	"pos/internal/results"
	"pos/internal/sched"
)

// campaignTimeout bounds how long a client waits for one campaign; a hung
// campaign fails its checks instead of hanging the benchmark.
const campaignTimeout = 60 * time.Second

// bench is one benchmark process: a controller (API server, queue, calendar
// of node pairs) plus the clients submitting campaigns to it.
type bench struct {
	w       workload
	seed    uint64
	epoch   time.Time
	store   *results.Store
	work    string
	onTmpfs bool // the results root is a tmpfs (see mountTmpfs)
	client  *api.Client

	flights sync.Map // campaign name -> *flight, while in flight
	seq     atomic.Int64

	mu        sync.Mutex
	refSeries []byte // throughput series of this seed's first campaign
}

// flight is one campaign from the client's point of view.
type flight struct {
	name   string
	user   string
	tenant int
	tr     *campaignTrace // nil outside the traced pass

	submitted, submitReturned      time.Time
	evalStart, evalEnd             time.Time
	publishStart, publishEnd       time.Time
	launched                       chan struct{} // closed when the launcher returns
	entered, firstRun              time.Time     // written by the launcher before launched closes
	sum                            *core.Summary // ditto
	launchErr                      error         // ditto
	id, okRuns                     int
	pkts                           int64
	treeFiles, treeDirs, treeBytes int64
	archiveBytes                   int64
	failed                         bool
	why                            string
}

func (f *flight) fail(format string, args ...any) {
	if !f.failed {
		f.failed = true
		f.why = fmt.Sprintf(format, args...)
	}
}

// launch is the queue's campaign launcher, like posctl serve's demo
// launcher: build a fresh case-study topology, run the sweep, tear down.
func (b *bench) launch(ctx context.Context, sub queue.Submission, events *eventlog.Pipeline) error {
	v, ok := b.flights.Load(sub.Name)
	if !ok {
		return fmt.Errorf("perfbench: no client waits for campaign %q", sub.Name)
	}
	f := v.(*flight)
	defer close(f.launched)
	f.entered = time.Now()
	f.sum, f.launchErr = b.execute(ctx, f, sub, events)
	return f.launchErr
}

func (b *bench) execute(ctx context.Context, f *flight, sub queue.Submission, events *eventlog.Pipeline) (*core.Summary, error) {
	seed, err := strconv.ParseUint(sub.Spec["seed"], 10, 64)
	if err != nil {
		return nil, fmt.Errorf("perfbench: bad seed in spec: %w", err)
	}
	tr := f.tr
	launch := -1
	if tr != nil {
		launch = tr.open(layerLaunch, 0)
		defer tr.close(launch)
	}
	t0 := time.Now()
	topo, err := b.w.build(seed)
	if tr != nil {
		tr.add(layerBuild, launch, t0, time.Now())
	}
	if err != nil {
		return nil, err
	}
	defer func() {
		t := time.Now()
		topo.Close()
		if tr != nil {
			tr.add(layerClose, launch, t, time.Now())
		}
	}()

	cfg := b.w.sweep
	cfg.User = sub.User
	var r *core.Runner
	var run func() (*core.Summary, error)
	if b.w.viaCampaign {
		reps := casestudy.Replicas([]*casestudy.Topology{topo}, cfg)
		reps[0].Experiment.Name = sub.Name
		r = reps[0].Runner
		c := &sched.Campaign{Replicas: reps, Events: events, HeartbeatInterval: 2 * time.Second}
		run = func() (*core.Summary, error) { return c.Run(ctx, b.store) }
	} else {
		r = topo.Runner()
		r.Events = events
		exp := topo.Experiment(cfg)
		exp.Name = sub.Name
		run = func() (*core.Summary, error) { return r.Run(ctx, exp, b.store) }
	}
	r.Progress = func(ev core.ProgressEvent) {
		if ev.Phase != core.PhaseMeasurement || ev.Error != "" {
			return
		}
		if f.firstRun.IsZero() {
			f.firstRun = time.Now()
		}
		if tr != nil {
			tr.runBoundary(true)
		}
	}
	if tr != nil {
		tr.startSession(launch)
		if err := tr.instrument(topo, r); err != nil {
			return nil, err
		}
	}
	sum, err := run()
	if tr != nil {
		tr.endSession()
	}
	return sum, err
}

// campaign drives one campaign as a user does: submit through the API,
// wait for the queue to run it, evaluate, plot, publish; then check the
// published tree and prune it. The campaign is timed from the submit call to
// the published archive; the checks and pruning happen after that.
func (b *bench) campaign(tenant int, traced bool) *flight {
	f := &flight{
		name:      fmt.Sprintf("%s-%05d", b.w.name, b.seq.Add(1)),
		user:      fmt.Sprintf("tenant%d", tenant),
		tenant:    tenant,
		submitted: time.Now(),
		launched:  make(chan struct{}),
	}
	if traced {
		f.tr = newCampaignTrace(b.epoch, f.submitted)
	}
	b.flights.Store(f.name, f)
	defer b.flights.Delete(f.name)

	view, err := b.client.SubmitCampaign(api.CampaignRequest{
		User:    f.user,
		Name:    f.name,
		Nodes:   pairNodes(tenant % b.w.pairs),
		Minutes: 10,
		Spec:    map[string]string{"seed": strconv.FormatUint(b.seed, 10)},
	})
	f.submitReturned = time.Now()
	if f.tr != nil {
		f.tr.add(layerSubmit, 0, f.submitted, f.submitReturned)
	}
	if err != nil {
		f.fail("submit: %v", err)
		return f
	}
	f.id = view.ID
	select {
	case <-f.launched:
	case <-time.After(campaignTimeout):
		f.fail("campaign %d did not finish within %s", f.id, campaignTimeout)
		return f
	}
	if f.tr != nil {
		f.tr.add(layerAdmitWait, 0, f.submitReturned, maxTime(f.submitReturned, f.entered))
	}
	if f.launchErr != nil {
		f.fail("campaign %d: %v", f.id, f.launchErr)
		return f
	}

	f.evalStart = time.Now()
	exp, err := b.store.OpenExperiment(f.user, f.name, filepath.Base(f.sum.ResultsDir))
	if err != nil {
		f.fail("open results: %v", err)
		return f
	}
	runs, err := eval.LoadRuns(exp, "vriga", "moongen.log")
	if err != nil {
		f.fail("eval: %v", err)
		return f
	}
	series, err := eval.ThroughputSeries(runs, "pkt_sz", "pkt_rate", 1e-6)
	if err != nil {
		f.fail("eval: %v", err)
		return f
	}
	loaded := time.Now()
	for name, data := range plot.ExportNamed("figures/throughput", plot.Throughput(f.name, series)) {
		if err := exp.AddExperimentArtifact(name, data); err != nil {
			f.fail("plot: %v", err)
			return f
		}
	}
	f.evalEnd = time.Now()
	archive := filepath.Join(b.work, f.name+".tar.gz")
	f.publishStart = f.evalEnd
	_, err = publish.Release(exp, f.user, f.name, archive)
	f.publishEnd = time.Now()
	if f.tr != nil {
		f.tr.add(layerEvalLoad, 0, f.evalStart, loaded)
		f.tr.add(layerPlotExport, 0, loaded, f.evalEnd)
		f.tr.add(layerPublish, 0, f.publishStart, f.publishEnd)
		f.tr.finish(f.publishEnd)
	}
	if err != nil {
		f.fail("publish: %v", err)
		return f
	}

	b.check(f, exp, runs, series)
	if st, err := os.Stat(archive); err == nil {
		f.archiveBytes = st.Size()
	}
	if traced {
		f.treeFiles, f.treeDirs, f.treeBytes = countTree(exp.Dir())
	}
	// Prune right away: the store's in-memory state and the peak RSS then
	// stay independent of how many campaigns a run completes.
	os.Remove(archive)
	if _, err := b.store.Prune(f.user, f.name, 0); err != nil {
		f.fail("prune: %v", err)
	}
	os.Remove(filepath.Join(b.store.Root(), f.user, f.name))
	return f
}

// check applies the output checks to one published campaign.
func (b *bench) check(f *flight, exp *results.Experiment, runs []eval.RunData, series []eval.Series) {
	want := b.w.runs()
	if f.sum.TotalRuns != want || f.sum.FailedRuns != 0 || f.sum.CancelledRuns != 0 {
		f.fail("summary: %d runs, %d failed, %d cancelled; want %d, 0, 0",
			f.sum.TotalRuns, f.sum.FailedRuns, f.sum.CancelledRuns, want)
	}
	for _, r := range runs {
		if r.Failed || r.Report == nil {
			continue
		}
		f.okRuns++
		tx, okTx := r.Report.Total(moonparse.TX)
		rx, okRx := r.Report.Total(moonparse.RX)
		if !okTx || !okRx || tx.Packets == 0 {
			f.fail("run %d: no TX/RX totals", r.Run)
			continue
		}
		f.pkts += tx.Packets
		if b.w.lossless && rx.Packets != tx.Packets {
			f.fail("run %d (%v): lost %d of %d packets", r.Run, r.LoopVars, tx.Packets-rx.Packets, tx.Packets)
		}
	}
	if f.okRuns != want {
		f.fail("recorded %d good runs, want %d", f.okRuns, want)
	}
	rep, err := publish.Check(exp)
	if err != nil || !rep.OK() {
		f.fail("publish.Check: %v\n%s", err, rep.Render())
	}
	js, err := json.Marshal(series)
	if err != nil {
		f.fail("series: %v", err)
		return
	}
	b.mu.Lock()
	if b.refSeries == nil {
		b.refSeries = js
	}
	same := string(b.refSeries) == string(js)
	b.mu.Unlock()
	if !same {
		f.fail("throughput series differs from the first campaign of seed %d", b.seed)
	}
}

// countTree counts the files, directories and file bytes under dir.
func countTree(dir string) (files, dirs, bytes int64) {
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			dirs++
			return nil
		}
		files++
		if info, err := d.Info(); err == nil {
			bytes += info.Size()
		}
		return nil
	})
	return files, dirs, bytes
}

func pairNodes(pair int) []string {
	return []string{fmt.Sprintf("pair%d-loadgen", pair), fmt.Sprintf("pair%d-dut", pair)}
}

func maxTime(a, b time.Time) time.Time {
	if b.After(a) {
		return b
	}
	return a
}
