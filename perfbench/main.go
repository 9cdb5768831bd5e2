// Command perfbench is the repository's end-to-end benchmark. It drives the
// whole controller the way a user does — api.Client.SubmitCampaign, queue
// admission, topology build, Runner.Run or sched.Campaign, eval and plot,
// publish.Release — and reports named end-to-end metrics per workload. With
// -trace 1 it adds a separate traced pass whose outside-in wrappers time
// every layer through public seams only, and reports per-layer self time.
//
// Run it through run.py, which builds it inside the checkout:
//
//	python3 perfbench/run.py --workload appendix --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Any failed output check makes the
// command exit 1. See README.md for the workloads and metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"pos/internal/api"
	"pos/internal/casestudy"
	"pos/internal/eventlog"
	"pos/internal/image"
	"pos/internal/queue"
	"pos/internal/results"
	"pos/internal/telemetry"
	"pos/internal/testbed"
)

// workload is one campaign mix. Every campaign builds a fresh topology.
type workload struct {
	name    string
	tenants int
	pairs   int // node pairs in the calendar; tenant i is bound to pair i%pairs
	// tailQ is the campaign_tail_s quantile, fixed per workload: it leaves
	// at least ten campaigns beyond it in a run of the default length.
	tailQ       float64
	lossless    bool // every offered rate is below the DuT's capacity
	viaCampaign bool // run through sched.Campaign (one replica), not Runner.Run
	sweep       casestudy.SweepConfig
	build       func(seed uint64) (*casestudy.Topology, error)
}

func (w workload) runs() int { return len(w.sweep.Sizes) * len(w.sweep.RatesPPS) }

func appendixSweep() casestudy.SweepConfig {
	s := casestudy.PaperSweep()
	s.RuntimeSec = 1
	return s
}

var workloads = map[string]workload{
	// The paper's Appendix A campaign on bare metal: cost spread over the
	// control plane, results store, publish and data plane.
	"appendix": {
		name: "appendix", tenants: 1, pairs: 1, tailQ: 0.9, lossless: true,
		sweep: appendixSweep(),
		build: func(seed uint64) (*casestudy.Topology, error) {
			return casestudy.New(casestudy.BareMetal, casestudy.WithSeed(seed))
		},
	},
	// The extended sweep on the vpos 8-router, 4-cluster chain with the
	// program's default sharding: the data plane dominates.
	"chain": {
		name: "chain", tenants: 1, pairs: 1, tailQ: 0.7,
		sweep: casestudy.ExtendedSweep(),
		build: func(seed uint64) (*casestudy.Topology, error) {
			return casestudy.NewChain(casestudy.Virtual, casestudy.ChainConfig{Routers: 8, Clusters: 4},
				casestudy.WithSeed(seed))
		},
	},
	// Many small vpos campaigns from four tenants on two node pairs: two
	// tenants contend for each pair through the queue's fair share, so the
	// load is admission, build, boot, deploy, setup and publish. Closed
	// loops, not an open loop: see "Why closed loops" in README.md.
	"tenants": {
		name: "tenants", tenants: 4, pairs: 2, tailQ: 0.97, viaCampaign: true,
		sweep: casestudy.SweepConfig{Sizes: []int{64, 1500}, RatesPPS: []int{10_000, 20_000, 30_000}, RuntimeSec: 1},
		build: func(seed uint64) (*casestudy.Topology, error) {
			return casestudy.New(casestudy.Virtual, casestudy.WithSeed(seed))
		},
	},
}

// warmup campaigns run before timing starts, so connection set-up, heap
// growth and first-use initialisation are not measured.
const warmup = 2

func main() {
	name := flag.String("workload", "appendix", "workload: appendix, chain, tenants, or all three in turn")
	seed := flag.Uint64("seed", 1, "seed for the topology's jitter model")
	seconds := flag.Float64("seconds", 30, "length of each measured pass")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from a traced pass")
	work := flag.String("work", ".bench_build/perfbench", "directory for results, archives and the trace record")
	flag.Parse()
	if os.Getenv(privateNSEnv) == "" {
		if code, ok := reexecPrivate(); ok {
			os.Exit(code)
		}
	}
	names := []string{*name}
	if *name == "all" {
		names = []string{"appendix", "chain", "tenants"}
	}
	_, ok := workloads[names[0]]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: bad flags")
		os.Exit(2)
	}
	// A hung campaign must not hang the benchmark past its time limit.
	limit := time.Duration(len(names)) * 170 * time.Second
	time.AfterFunc(limit, func() {
		fmt.Fprintln(os.Stderr, "perfbench: run exceeded", limit)
		os.Exit(1)
	})
	code := 0
	for _, n := range names {
		if err := run(workloads[n], *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *work); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", n, err)
			code = 1
		}
	}
	os.Exit(code)
}

func run(w workload, seed uint64, d time.Duration, traced bool, workRoot string) error {
	work := filepath.Join(workRoot, fmt.Sprintf("%s-%d", w.name, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(work)
	defer mountTmpfs(work)()

	startCtl := time.Now()
	b, stop, err := startController(w, seed, work)
	if err != nil {
		return err
	}
	controllerStart := time.Since(startCtl)
	defer stop()

	var all []*flight
	for i := 0; i < warmup; i++ {
		all = append(all, b.campaign(i%w.tenants, false))
	}
	base := b.pass(d, false)
	all = append(all, base.flights...)
	var tp *passResult
	if traced {
		p := b.pass(d, true)
		tp = &p
		all = append(all, p.flights...)
	}
	checkErrs := b.checkQueue(all)
	var disk map[string]any
	if traced && w.name == "appendix" {
		var dfs []*flight
		var errs []string
		disk, dfs, errs, err = diskDiagnostic(seed, workRoot)
		if err != nil {
			return fmt.Errorf("disk diagnostic: %w", err)
		}
		all = append(all, dfs...)
		checkErrs = append(checkErrs, errs...)
	}

	attempted, failed := 0, 0
	for _, f := range all {
		attempted += 1 + w.runs()
		failed += w.runs() - f.okRuns
		if f.failed {
			failed++
			checkErrs = append(checkErrs, fmt.Sprintf("%s: %s", f.name, f.why))
		}
	}
	correct := len(checkErrs) == 0

	host := map[string]any{
		"gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(), "go": runtime.Version(),
		"results_fs": fsType(work), "seed": seed, "seconds": d.Seconds(), "workload": w.name,
		"tail_quantile": w.tailQ, "controller_start_ms": ms(controllerStart),
	}
	hj, _ := json.Marshal(host)
	fmt.Println("host", string(hj))
	if disk != nil {
		dj, _ := json.Marshal(disk)
		fmt.Println("disk diagnostic (ungated)", string(dj))
	}
	e2e := b.endToEnd(base)
	printMetrics("end-to-end (untraced)", e2e)
	fmt.Printf("  %-28s %12.4f %s\n", "failed_frac", float64(failed)/float64(attempted), "1")
	fmt.Printf("  %-28s %12.4f %s\n", "cpu_user_s", base.user.Seconds(), "s")
	fmt.Printf("  %-28s %12.4f %s\n", "cpu_sys_s", base.sys.Seconds(), "s")

	metrics := e2e
	if tp != nil {
		metrics = b.perLayer(base, *tp, controllerStart, workRoot)
		printMetrics("per-layer (traced pass)", metrics)
	}
	for _, e := range checkErrs {
		fmt.Fprintln(os.Stderr, "check failed:", e)
	}
	out, err := json.Marshal(map[string]any{
		"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if !correct {
		return fmt.Errorf("%d output checks failed", len(checkErrs))
	}
	return nil
}

// startController brings up what `posctl serve` runs: a testbed whose
// calendar holds the workload's node pairs, the API server, the event
// pipeline and the campaign queue with the benchmark's launcher.
func startController(w workload, seed uint64, work string) (*bench, func(), error) {
	tb := testbed.New()
	if err := tb.Images.Add(image.DefaultDebianBuster()); err != nil {
		return nil, nil, err
	}
	for p := 0; p < w.pairs; p++ {
		for _, n := range pairNodes(p) {
			if _, err := tb.AddNode(n); err != nil {
				tb.Close()
				return nil, nil, err
			}
		}
	}
	store, err := results.NewStore(filepath.Join(work, "results"))
	if err != nil {
		tb.Close()
		return nil, nil, err
	}
	srv, err := api.Serve(tb)
	if err != nil {
		tb.Close()
		return nil, nil, err
	}
	events := eventlog.NewPipeline()
	srv.SetEvents(events)
	srv.SetResults(store)
	b := &bench{w: w, seed: seed, epoch: time.Now(), store: store, work: work, onTmpfs: fsType(work) == "tmpfs",
		client: api.NewClient(srv.Addr())}
	qdir, err := store.ControlDir("queue")
	if err != nil {
		srv.Close()
		tb.Close()
		return nil, nil, err
	}
	q, err := queue.Open(queue.Config{Dir: qdir, Calendar: tb.Calendar, Events: events, Launch: b.launch})
	if err != nil {
		srv.Close()
		tb.Close()
		return nil, nil, err
	}
	srv.SetQueue(q)
	return b, func() {
		q.Close()
		srv.Close()
		tb.Close()
	}, nil
}

// passResult is one measured pass.
type passResult struct {
	flights   []*flight
	user, sys time.Duration // process CPU over the pass
	maxRSS    int64
	rt0, rt1  telemetry.RuntimeStats
}

// pass runs campaigns for d in closed loops: each tenant submits its next
// campaign once the previous one is published. Campaigns submitted before
// the deadline finish.
func (b *bench) pass(d time.Duration, traced bool) passResult {
	var p passResult
	var mu sync.Mutex
	u0 := readUsage()
	p.rt0 = telemetry.ReadRuntimeStats()
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for t := 0; t < b.w.tenants; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				f := b.campaign(t, traced)
				mu.Lock()
				p.flights = append(p.flights, f)
				mu.Unlock()
			}
		}(t)
	}
	wg.Wait()
	p.rt1 = telemetry.ReadRuntimeStats()
	u1 := readUsage()
	p.user, p.sys = u1.user-u0.user, u1.sys-u0.sys
	p.maxRSS = u1.maxRSS
	// On disk, flush the filesystem so the next pass (or the next run)
	// does not pay for this one's writes and deletions.
	if !b.onTmpfs {
		syscall.Sync()
	}
	return p
}

// checkQueue waits for the queue to settle, then checks that every campaign
// ended done and that admission was fair: while a campaign waited for its
// node pair, the other tenant on that pair was admitted at most once.
func (b *bench) checkQueue(flights []*flight) []string {
	var views []api.CampaignView
	for settle := time.Now(); ; {
		var err error
		views, err = b.client.Campaigns()
		if err != nil {
			return []string{"listing campaigns: " + err.Error()}
		}
		running := false
		for _, v := range views {
			running = running || v.State == string(queue.StateRunning) || v.State == string(queue.StateQueued)
		}
		if !running || time.Since(settle) > 5*time.Second {
			break
		}
		time.Sleep(time.Millisecond)
	}
	var errs []string
	state := make(map[int]string, len(views))
	for _, v := range views {
		state[v.ID] = v.State
	}
	for _, a := range flights {
		if a.id == 0 {
			continue
		}
		if st := state[a.id]; st != string(queue.StateDone) {
			errs = append(errs, fmt.Sprintf("%s: queue state %q, want done", a.name, st))
			continue
		}
		overtaken := 0
		for _, o := range flights {
			if o.tenant != a.tenant && o.tenant%b.w.pairs == a.tenant%b.w.pairs &&
				o.entered.After(a.submitted) && o.entered.Before(a.entered) {
				overtaken++
			}
		}
		if overtaken > 1 {
			errs = append(errs, fmt.Sprintf("%s: %d admissions of the other tenant on its pair while it waited", a.name, overtaken))
		}
	}
	return errs
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// good returns the campaigns that passed every check; only they are timed.
func good(fs []*flight) []*flight {
	var out []*flight
	for _, f := range fs {
		if !f.failed {
			out = append(out, f)
		}
	}
	return out
}

// campaignSeconds is each campaign's wall clock, submit call to published
// archive.
func campaignSeconds(fs []*flight) []float64 {
	out := make([]float64, len(fs))
	for i, f := range fs {
		out[i] = f.publishEnd.Sub(f.submitted).Seconds()
	}
	return out
}

func (b *bench) endToEnd(p passResult) map[string]metric {
	fs := good(p.flights)
	camp := campaignSeconds(fs)
	var setup, evalS, pub []float64
	var iv [][2]time.Time
	runs := 0
	for _, f := range fs {
		setup = append(setup, f.firstRun.Sub(f.submitted).Seconds())
		evalS = append(evalS, f.evalEnd.Sub(f.evalStart).Seconds())
		pub = append(pub, f.publishEnd.Sub(f.publishStart).Seconds())
		iv = append(iv, [2]time.Time{f.submitted, f.publishEnd})
		runs += f.okRuns
	}
	return map[string]metric{
		"setup_s":         {finite(median(setup)), "s"},
		"campaign_s":      {finite(median(camp)), "s"},
		"campaign_tail_s": {finite(quantile(camp, b.w.tailQ)), "s"},
		"runs_per_s":      {finite(float64(runs) / unionSeconds(iv)), "1/s"},
		"eval_s":          {finite(median(evalS)), "s"},
		"publish_s":       {finite(median(pub)), "s"},
		"cpu_ms_per_run":  {finite(ms(p.user+p.sys) / float64(runs)), "ms"},
		"rss_peak_mb":     {float64(p.maxRSS) / 1024, "MB"},
	}
}

// finite maps the NaN or Inf of an empty sample to 0; the run is then
// reported incorrect anyway.
func finite(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return x
}

// perLayer reports the traced pass: per-layer self time per campaign (ms),
// layer counts, runtime cost from the untraced pass, and tracing overhead.
func (b *bench) perLayer(base, tp passResult, controllerStart time.Duration, workRoot string) map[string]metric {
	fs := good(tp.flights)
	n := float64(len(fs))
	sum := sumAttribution(fs)
	self, incl, raw, wall := sum.self, sum.incl, sum.raw, sum.wall
	var pkts, files, dirs, bytes, archive int64
	for _, f := range fs {
		pkts += f.pkts
		files += f.treeFiles
		dirs += f.treeDirs
		bytes += f.treeBytes
		archive += f.archiveBytes
	}
	per := func(d time.Duration) float64 { return finite(ms(d) / n) }
	count := func(x int64) float64 { return finite(float64(x) / n) }
	baseFs := good(base.flights)
	bn := float64(len(baseFs))
	m := map[string]metric{
		"api.submit_ms":                 {per(self[layerSubmit]), "ms"},
		"queue.admit_wait_ms":           {per(self[layerAdmitWait]), "ms"},
		"testbed.build_ms":              {per(self[layerBuild]), "ms"},
		"mgmt.reboot_ms":                {per(self[layerReboot]), "ms"},
		"hosttools.deploy_ms":           {per(self[layerDeploy]), "ms"},
		"shell.setup_exec_ms":           {per(incl[layerSetupExec]), "ms"},
		"core.run_ms":                   {per(incl[layerRun]), "ms"},
		"core.record_ms":                {per(self[layerRun]), "ms"},
		"shell.exec_ms":                 {per(incl[layerExec]), "ms"},
		"shell.rpc_ms":                  {per(self[layerExec]), "ms"},
		"loadgen.moongen_ms":            {per(self[layerMoonGen]), "ms"},
		"sim.pkts":                      {count(pkts), "count"},
		"sim.ns_per_pkt":                {finite(float64(raw[layerMoonGen]) / float64(pkts)), "ns"},
		"hosttools.upload_ms":           {per(self[layerPosRun]), "ms"},
		"hosttools.barrier_wait_ms":     {per(self[layerPosSync]), "ms"},
		"results.tree_files":            {count(files), "count"},
		"results.tree_dirs":             {count(dirs), "count"},
		"results.tree_bytes":            {count(bytes), "count"},
		"eval.load_ms":                  {per(self[layerEvalLoad]), "ms"},
		"plot.export_ms":                {per(self[layerPlotExport]), "ms"},
		"publish.release_ms":            {per(self[layerPublish]), "ms"},
		"publish.archive_kb":            {finite(float64(archive) / 1024 / n), "KiB"},
		"runtime.alloc_mb_per_campaign": {finite(float64(base.rt1.AllocBytes-base.rt0.AllocBytes) / (1 << 20) / bn), "MB"},
		"runtime.gc_per_campaign":       {finite(float64(base.rt1.GCCycles-base.rt0.GCCycles) / bn), "count"},
		"controller.start_ms":           {ms(controllerStart), "ms"},
		"trace.overhead_x":              {finite(median(campaignSeconds(fs)) / median(campaignSeconds(baseFs))), "x"},
		"trace.unattributed_ms":         {per(self[layerCampaign]), "ms"},
		"trace.campaign_ms":             {per(wall), "ms"},
		"trace.campaigns":               {n, "count"},
		"trace.unattributed_pct":        {finite(100 * float64(self[layerCampaign]) / float64(wall)), "%"},
		"trace.dataplane_pct":           {finite(100 * float64(self[layerMoonGen]) / float64(wall)), "%"},
		"core.session_ms":               {per(self[layerSession]), "ms"},
		"queue.launch_ms":               {per(self[layerLaunch]), "ms"},
		"testbed.close_ms":              {per(self[layerClose]), "ms"},
		"mgmt.setboot_ms":               {per(self[layerSetBoot]), "ms"},
		"router.stats_ms":               {per(self[layerRouterStats]), "ms"},
		"shell.setup_rpc_ms":            {per(self[layerSetupExec]), "ms"},
	}
	printLayers(self, wall, n)
	writeTraceRecord(workRoot, b.w.name, self, wall, n, fs)
	return m
}

// sumAttribution adds up the traced campaigns' attributions.
func sumAttribution(fs []*flight) attribution {
	sum := attribution{
		self: make(map[string]time.Duration),
		incl: make(map[string]time.Duration),
		raw:  make(map[string]time.Duration),
	}
	for _, f := range fs {
		a := f.tr.attribute()
		sum.wall += a.wall
		for l, v := range a.self {
			sum.self[l] += v
		}
		for l, v := range a.incl {
			sum.incl[l] += v
		}
		for l, v := range a.raw {
			sum.raw[l] += v
		}
	}
	return sum
}

// diskCampaigns is the length of the disk diagnostic.
const diskCampaigns = 20

// diskDiagnostic is the ungated diagnostic of the traced appendix run:
// diskCampaigns traced appendix campaigns in a closed loop, with the results
// root on the checkout's disk instead of tmpfs, so the store's write path on
// a real filesystem stays in view. It returns the diagnostic record, the
// campaigns, whose output checks count like any other, and the failures of
// its queue checks.
func diskDiagnostic(seed uint64, workRoot string) (map[string]any, []*flight, []string, error) {
	work := filepath.Join(workRoot, fmt.Sprintf("disk-%d", os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, nil, nil, err
	}
	defer os.RemoveAll(work)
	b, stop, err := startController(workloads["appendix"], seed, work)
	if err != nil {
		return nil, nil, nil, err
	}
	defer stop()
	fs := []*flight{b.campaign(0, false)} // warm-up
	start := time.Now()
	for i := 0; i < diskCampaigns; i++ {
		fs = append(fs, b.campaign(0, true))
	}
	elapsed := time.Since(start)
	errs := b.checkQueue(fs)
	timed := good(fs[1:])
	n := float64(len(timed))
	sum := sumAttribution(timed)
	var files, dirs, bytes int64
	for _, f := range timed {
		files += f.treeFiles
		dirs += f.treeDirs
		bytes += f.treeBytes
	}
	per := func(d time.Duration) float64 { return finite(ms(d) / n) }
	return map[string]any{
		"workload": "appendix", "results_fs": fsType(work), "campaigns": len(timed),
		"elapsed_s":           elapsed.Seconds(),
		"campaign_ms":         finite(1000 * median(campaignSeconds(timed))),
		"core.record_ms":      per(sum.self[layerRun]),
		"hosttools.upload_ms": per(sum.self[layerPosRun]),
		"shell.rpc_ms":        per(sum.self[layerExec]),
		"publish.release_ms":  per(sum.self[layerPublish]),
		"results.tree_files":  finite(float64(files) / n),
		"results.tree_dirs":   finite(float64(dirs) / n),
		"results.tree_bytes":  finite(float64(bytes) / n),
	}, fs, errs, nil
}

// printLayers prints the self-time table: every layer's share of the traced
// campaign wall clock, largest first; the shares sum to 100%.
func printLayers(self map[string]time.Duration, wall time.Duration, n float64) {
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return self[layers[i]] > self[layers[j]] })
	fmt.Printf("layer self time per traced campaign (%.0f campaigns, %.3f ms wall each):\n", n, ms(wall)/n)
	for _, l := range layers {
		name := l
		if l == layerCampaign {
			name = "unattributed"
		}
		fmt.Printf("  %-22s %10.3f ms %6.2f%%\n", name, ms(self[l])/n, 100*float64(self[l])/float64(wall))
	}
}

// writeTraceRecord writes the layer table and the spans of the traced
// campaign closest to the median wall clock, for later inspection.
func writeTraceRecord(workRoot, name string, self map[string]time.Duration, wall time.Duration, n float64, fs []*flight) {
	if len(fs) == 0 {
		return
	}
	sorted := append([]*flight(nil), fs...)
	sort.Slice(sorted, func(i, j int) bool {
		return sorted[i].publishEnd.Sub(sorted[i].submitted) < sorted[j].publishEnd.Sub(sorted[j].submitted)
	})
	mid := sorted[len(sorted)/2]
	type spanOut struct {
		Layer   string  `json:"layer"`
		Parent  int     `json:"parent"`
		StartMs float64 `json:"start_ms"`
		EndMs   float64 `json:"end_ms"`
	}
	var spans []spanOut
	root := mid.tr.spans[0].start
	for _, s := range mid.tr.spans {
		spans = append(spans, spanOut{s.layer, s.parent, ms(s.start - root), ms(s.end - root)})
	}
	selfMs := map[string]float64{}
	for l, v := range self {
		if l == layerCampaign {
			l = "unattributed"
		}
		selfMs[l] = ms(v) / n
	}
	data, err := json.MarshalIndent(map[string]any{
		"workload": name, "campaigns": n, "campaign_ms": ms(wall) / n,
		"self_ms_per_campaign": selfMs, "median_campaign_spans": spans,
	}, "", "  ")
	if err == nil {
		os.WriteFile(filepath.Join(workRoot, "trace-"+name+".json"), data, 0o644)
	}
}

func printMetrics(title string, m map[string]metric) {
	fmt.Println(title + ":")
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %-28s %12.4f %s\n", k, m[k].Value, m[k].Unit)
	}
}
