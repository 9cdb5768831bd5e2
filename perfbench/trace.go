package main

import (
	"context"
	"sort"
	"sync"
	"time"

	"pos/internal/casestudy"
	"pos/internal/core"
	"pos/internal/node"
)

// Layer names. Each span carries one; a layer's self time is the part of a
// campaign's wall clock during which one of its spans was the innermost
// active span (see attribute).
const (
	layerCampaign    = "campaign" // root: self time is the unattributed remainder
	layerSubmit      = "api.submit"
	layerAdmitWait   = "queue.admit_wait"
	layerLaunch      = "queue.launch"
	layerBuild       = "testbed.build"
	layerClose       = "testbed.close"
	layerSession     = "core.session"
	layerRun         = "core.run"
	layerSetBoot     = "mgmt.setboot"
	layerReboot      = "mgmt.reboot"
	layerDeploy      = "hosttools.deploy"
	layerSetupExec   = "shell.setup_exec"
	layerExec        = "shell.exec"
	layerPosRun      = "hosttools.pos_run"
	layerPosSync     = "hosttools.pos_sync"
	layerMoonGen     = "loadgen.moongen"
	layerRouterStats = "router.stats"
	layerEvalLoad    = "eval.load"
	layerPlotExport  = "plot.export"
	layerPublish     = "publish.release"
)

// waitLayers are spans that only wait on another lane (a barrier, the
// admission queue). They receive time only when no busy span is active, so a
// host parked in pos_sync does not take half the credit for the MoonGen run
// it is waiting for.
var waitLayers = map[string]bool{layerAdmitWait: true, layerPosSync: true}

// wrappedCommands are the node commands the traced pass re-registers with a
// timer, keyed to their layer.
var wrappedCommands = map[string]string{
	"moongen":      layerMoonGen,
	"router_stats": layerRouterStats,
	"pos_run":      layerPosRun,
	"pos_sync":     layerPosSync,
}

type span struct {
	layer      string
	parent     int // index of the parent span; -1 for the root
	start, end time.Duration
}

// campaignTrace holds one campaign's spans in memory. Span 0 is the root,
// from the submit call to when the campaign's archive was published.
type campaignTrace struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span

	// run is the open core.run span (-1 before the first run); session is
	// the span around Runner.Run / Campaign.Run.
	run, session int
	lanes        map[string][]int // per host: stack of open exec/command spans
}

func newCampaignTrace(epoch, start time.Time) *campaignTrace {
	t := &campaignTrace{epoch: epoch, run: -1, session: -1, lanes: make(map[string][]int)}
	t.spans = append(t.spans, span{layer: layerCampaign, parent: -1, start: start.Sub(epoch)})
	return t
}

// open starts a span and returns its index.
func (t *campaignTrace) open(layer string, parent int) int {
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{layer: layer, parent: parent, start: now, end: -1})
	return len(t.spans) - 1
}

func (t *campaignTrace) close(id int) {
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// add records a span whose bounds the caller already measured.
func (t *campaignTrace) add(layer string, parent int, start, end time.Time) {
	t.mu.Lock()
	t.spans = append(t.spans, span{layer: layer, parent: parent, start: start.Sub(t.epoch), end: end.Sub(t.epoch)})
	t.mu.Unlock()
}

// startSession opens the span around Runner.Run / Campaign.Run.
func (t *campaignTrace) startSession(parent int) {
	id := t.open(layerSession, parent)
	t.mu.Lock()
	t.session = id
	t.mu.Unlock()
}

// endSession closes the last run and the session span.
func (t *campaignTrace) endSession() {
	t.runBoundary(false)
	t.mu.Lock()
	id := t.session
	t.mu.Unlock()
	t.close(id)
}

// finish ends the root span when the campaign's archive is published.
func (t *campaignTrace) finish(end time.Time) {
	t.mu.Lock()
	t.spans[0].end = end.Sub(t.epoch)
	t.mu.Unlock()
}

// runBoundary closes the open run span and, when next is true, opens the
// next one. Runner.Progress reports run starts only, so a run ends where the
// next begins (or where the session returns): its wall clock includes the
// runner's artifact and metadata writes after the host scripts return.
func (t *campaignTrace) runBoundary(next bool) {
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.run >= 0 {
		t.spans[t.run].end = now
		t.run = -1
	}
	if next {
		t.spans = append(t.spans, span{layer: layerRun, parent: t.session, start: now, end: -1})
		t.run = len(t.spans) - 1
	}
}

// push opens a span on a host lane, nested under the lane's innermost open
// span; on an idle lane, under the open run, or the session before the
// first run starts.
func (t *campaignTrace) push(host, layer string) int {
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := t.session
	if st := t.lanes[host]; len(st) > 0 {
		parent = st[len(st)-1]
	} else if t.run >= 0 {
		parent = t.run
	}
	t.spans = append(t.spans, span{layer: layer, parent: parent, start: now, end: -1})
	id := len(t.spans) - 1
	t.lanes[host] = append(t.lanes[host], id)
	return id
}

func (t *campaignTrace) pop(host string, id int) {
	t.close(id)
	t.mu.Lock()
	st := t.lanes[host]
	for i := len(st) - 1; i >= 0; i-- {
		if st[i] == id {
			t.lanes[host] = append(st[:i], st[i+1:]...)
			break
		}
	}
	t.mu.Unlock()
}

// instrument installs the outside-in wrappers on a freshly built topology:
// a core.Host decorator over every runner host and a boot hook, added after
// the case study's own, that re-registers the measured node commands with a
// timer around the original from node.LookupCommand.
func (t *campaignTrace) instrument(topo *casestudy.Topology, r *core.Runner) error {
	for name, h := range r.Hosts {
		r.Hosts[name] = &tracedHost{Host: h, t: t}
	}
	for _, name := range topo.Testbed.Nodes() {
		h, err := topo.Testbed.Handle(name)
		if err != nil {
			return err
		}
		h.OnBoot(t.wrapCommands)
	}
	return nil
}

func (t *campaignTrace) wrapCommands(n *node.Node) error {
	for name, layer := range wrappedCommands {
		inner, ok := n.LookupCommand(name)
		if !ok {
			continue
		}
		layer := layer
		err := n.RegisterCommand(name, func(ctx context.Context, host *node.Node, args []string, stdout, stderr node.ErrWriter) error {
			id := t.push(host.Name, layer)
			defer t.pop(host.Name, id)
			return inner(ctx, host, args, stdout, stderr)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// tracedHost times each core.Host call the runner makes.
type tracedHost struct {
	core.Host
	t *campaignTrace
}

func (h *tracedHost) timed(layer string, fn func() error) error {
	id := h.t.push(h.Name(), layer)
	defer h.t.pop(h.Name(), id)
	return fn()
}

func (h *tracedHost) SetBoot(ref string, params map[string]string) error {
	return h.timed(layerSetBoot, func() error { return h.Host.SetBoot(ref, params) })
}

func (h *tracedHost) Reboot() error {
	return h.timed(layerReboot, h.Host.Reboot)
}

func (h *tracedHost) DeployTools() error {
	return h.timed(layerDeploy, h.Host.DeployTools)
}

func (h *tracedHost) Exec(ctx context.Context, script string, env map[string]string) (out string, err error) {
	layer := layerExec
	h.t.mu.Lock()
	if h.t.run < 0 {
		layer = layerSetupExec
	}
	h.t.mu.Unlock()
	err = h.timed(layer, func() error {
		out, err = h.Host.Exec(ctx, script, env)
		return err
	})
	return out, err
}

// attribution is one campaign's wall clock split by layer.
type attribution struct {
	wall time.Duration
	// self[l] is the time a span of layer l was the innermost busy span,
	// split evenly among concurrently active innermost spans; the values
	// sum to wall. incl[l] additionally counts time spent in l's
	// descendants.
	self, incl map[string]time.Duration
	// raw[l] is the plain sum of span durations (overlaps counted twice).
	raw map[string]time.Duration
}

// attribute partitions the root span's interval among the layers. Between
// consecutive span boundaries the set of active leaves (active spans without
// an active child) is fixed; that slice of time is split evenly among the
// busy leaves, or among the waiting leaves when every leaf waits.
func (t *campaignTrace) attribute() attribution {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	root := spans[0]
	a := attribution{
		wall: root.end - root.start,
		self: make(map[string]time.Duration),
		incl: make(map[string]time.Duration),
		raw:  make(map[string]time.Duration),
	}
	type edge struct {
		at   time.Duration
		id   int
		open bool
	}
	var edges []edge
	for id, s := range spans[1:] {
		id++
		if s.end < 0 {
			s.end = root.end // never closed: count it to the end
		}
		a.raw[s.layer] += s.end - s.start
		start, end := max(s.start, root.start), min(s.end, root.end)
		if end <= start {
			continue
		}
		edges = append(edges, edge{start, id, true}, edge{end, id, false})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].at != edges[j].at {
			return edges[i].at < edges[j].at
		}
		return !edges[i].open && edges[j].open
	})
	kids := make([]int, len(spans))
	active := []int{0}
	prev := root.start
	spread := func(d time.Duration) {
		if d <= 0 {
			return
		}
		var busy, waiting []int
		for _, id := range active {
			if kids[id] > 0 {
				continue
			}
			if waitLayers[spans[id].layer] {
				waiting = append(waiting, id)
			} else {
				busy = append(busy, id)
			}
		}
		leaves := busy
		if len(leaves) == 0 {
			leaves = waiting
		}
		share := d / time.Duration(len(leaves))
		for _, id := range leaves {
			a.self[spans[id].layer] += share
			seen := map[string]bool{}
			for p := id; p >= 0; p = spans[p].parent {
				if l := spans[p].layer; !seen[l] {
					seen[l] = true
					a.incl[l] += share
				}
			}
		}
	}
	for _, e := range edges {
		spread(e.at - prev)
		prev = e.at
		p := spans[e.id].parent
		if e.open {
			active = append(active, e.id)
			if p >= 0 {
				kids[p]++
			}
			continue
		}
		for i, id := range active {
			if id == e.id {
				active = append(active[:i], active[i+1:]...)
				break
			}
		}
		if p >= 0 {
			kids[p]--
		}
	}
	spread(root.end - prev)
	return a
}
