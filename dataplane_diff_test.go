package pos_test

import (
	"context"
	"testing"
	"time"

	"pos"
	"pos/internal/compare"
	"pos/internal/telemetry"
)

// The batched cut-through data plane is a pure performance optimization: its
// contract is byte-identical results against the scalar event-per-hop engine
// it replaced. These differential tests hold it to that contract across the
// paper's workloads — Fig. 3a (bare metal), Fig. 3b (seeded virtual), the
// latency CDF samples, the full Appendix A workflow artifact tree — on the
// two-node rig (TestBatchedMatchesScalar*) and on the 8-router, 4-cluster
// router chain (TestCrossShardMatchesScalar*), plus the sharded parallel
// sweep. The chain tests keep the names they had when the chain was
// partitioned across shards; it now runs on one batched engine, and its
// trunk and intra-cluster links put several cut-through hops and long
// propagation delays on one path.

// builder constructs one topology; the tests build each twice, once on the
// batched default engine and once with WithScalarEngine.
type builder func(opts ...pos.CaseStudyOption) (*pos.CaseStudy, error)

func twoNode(flavor pos.Flavor) builder {
	return func(opts ...pos.CaseStudyOption) (*pos.CaseStudy, error) {
		return pos.NewCaseStudy(flavor, opts...)
	}
}

func chain(flavor pos.Flavor) builder {
	return func(opts ...pos.CaseStudyOption) (*pos.CaseStudy, error) {
		return pos.NewCaseStudyChain(flavor, pos.ChainConfig{Routers: 8, Clusters: 4}, opts...)
	}
}

// enginePair builds the same topology on the batched engine and on the
// scalar oracle; both are closed when the test ends.
func enginePair(t *testing.T, build builder, opts ...pos.CaseStudyOption) (batched, scalar *pos.CaseStudy) {
	t.Helper()
	batched, err := build(opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { batched.Close() })
	scalar, err = build(append(opts, pos.WithScalarEngine())...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { scalar.Close() })
	return batched, scalar
}

// diffSweep runs the same measurement points on both topologies and fails on
// the first field that differs.
func diffSweep(t *testing.T, batched, scalar *pos.CaseStudy, sizes []int, rates []float64) {
	t.Helper()
	for _, size := range sizes {
		for _, rate := range rates {
			got, err := batched.DirectRun(size, rate, 1)
			if err != nil {
				t.Fatal(err)
			}
			want, err := scalar.DirectRun(size, rate, 1)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("size=%d rate=%g: batched %+v != scalar %+v", size, rate, got, want)
			}
		}
	}
}

// Fig. 3a's bare-metal sweep points: the 1.75 Mpps CPU plateau and the
// 1500 B line-rate ceiling.
var (
	fig3aSizes = []int{64, 1500}
	fig3aRates = []float64{10_000, 150_000, 300_000, 1_000_000, 1_800_000, 2_200_000}
)

// Fig. 3b's seeded virtual sweep points: jittered links keep the scalar
// delivery path, the software clock adds timestamp noise, and overload sheds
// packets — all of it must still agree bit for bit.
var (
	fig3bSizes = []int{64, 1500}
	fig3bRates = []float64{20_000, 120_000, 250_000, 400_000}
)

// TestBatchedMatchesScalarFigure3a sweeps the bare-metal router (Fig. 3a)
// through both engines.
func TestBatchedMatchesScalarFigure3a(t *testing.T) {
	batched, scalar := enginePair(t, twoNode(pos.BareMetal))
	diffSweep(t, batched, scalar, fig3aSizes, fig3aRates)
}

// TestCrossShardMatchesScalarChain is Fig. 3a's sweep on the bare-metal
// router chain.
func TestCrossShardMatchesScalarChain(t *testing.T) {
	batched, scalar := enginePair(t, chain(pos.BareMetal))
	diffSweep(t, batched, scalar, fig3aSizes, fig3aRates)
}

// TestBatchedMatchesScalarFigure3b sweeps the seeded virtual testbed
// (Fig. 3b) through both engines.
func TestBatchedMatchesScalarFigure3b(t *testing.T) {
	batched, scalar := enginePair(t, twoNode(pos.Virtual), pos.WithSeed(7))
	diffSweep(t, batched, scalar, fig3bSizes, fig3bRates)
}

// TestCrossShardMatchesScalarVirtualChain is Fig. 3b's sweep on the virtual
// router chain, where every router draws its own seeded jitter.
func TestCrossShardMatchesScalarVirtualChain(t *testing.T) {
	batched, scalar := enginePair(t, chain(pos.Virtual), pos.WithSeed(7))
	diffSweep(t, batched, scalar, fig3bSizes, fig3bRates)
}

// diffLatencySamples compares the raw latency sample streams — order and
// value — behind the paper's latency CDF.
func diffLatencySamples(t *testing.T, build builder) {
	t.Helper()
	batched, scalar := enginePair(t, build)
	got, err := batched.LatencySamples(64, 150_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := scalar.LatencySamples(64, 150_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) || len(got) == 0 {
		t.Fatalf("sample counts differ: %d vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("sample %d differs: %v vs %v", i, got[i], want[i])
		}
	}
}

func TestBatchedMatchesScalarLatencySamples(t *testing.T) {
	diffLatencySamples(t, twoNode(pos.BareMetal))
}

func TestCrossShardMatchesScalarLatencySamples(t *testing.T) {
	diffLatencySamples(t, chain(pos.BareMetal))
}

// diffWorkflowArtifacts executes the Appendix A workflow end to end —
// control plane, measurement scripts, artifact uploads — on both engines
// with a pinned wall clock, then diffs the two experiment result trees byte
// for byte: metadata.json, moongen.log, router.stats, every run directory.
func diffWorkflowArtifacts(t *testing.T, build builder) {
	t.Helper()
	cfg := pos.SweepConfig{
		Sizes:      []int{64, 1500},
		RatesPPS:   []int{10_000, 300_000},
		RuntimeSec: 1,
	}
	epoch := time.Date(2021, 10, 12, 11, 20, 32, 230471000, time.UTC)
	// Span archiving is off for this test: spans.json records the order in
	// which concurrent per-host goroutines opened spans — host scheduling,
	// not measurement results — so it is legitimately run-to-run volatile.
	telemetry.Default.SetEnabled(false)
	defer telemetry.Default.SetEnabled(true)
	runTree := func(topo *pos.CaseStudy) string {
		store, err := pos.NewResultsStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		exp := topo.Experiment(cfg)
		runner := topo.Testbed.Runner()
		runner.Clock = func() time.Time { return epoch }
		if _, err := runner.Run(context.Background(), exp, store); err != nil {
			t.Fatal(err)
		}
		ids, err := store.ListExperiments(exp.User, exp.Name)
		if err != nil || len(ids) != 1 {
			t.Fatalf("experiments = %v, %v", ids, err)
		}
		rec, err := store.OpenExperiment(exp.User, exp.Name, ids[0])
		if err != nil {
			t.Fatal(err)
		}
		return rec.Dir()
	}
	batched, scalar := enginePair(t, build, pos.WithSeed(3))
	diffs, err := compare.DiffExperiments(runTree(batched), runTree(scalar))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diffs {
		t.Errorf("artifact differs: %s", d)
	}
}

func TestBatchedMatchesScalarWorkflowArtifacts(t *testing.T) {
	diffWorkflowArtifacts(t, twoNode(pos.Virtual))
}

func TestCrossShardMatchesScalarWorkflowArtifacts(t *testing.T) {
	diffWorkflowArtifacts(t, chain(pos.Virtual))
}

// TestShardedSweepMatchesSequential runs the same sweep once through the
// parallel sharded executor and once sequentially on identically built
// replicas, asserting point-for-point equality in campaign order.
func TestShardedSweepMatchesSequential(t *testing.T) {
	cfg := pos.SweepConfig{
		Sizes:      []int{64, 1500},
		RatesPPS:   []int{20_000, 120_000, 250_000},
		RuntimeSec: 1,
	}
	const n = 3
	build := func() []*pos.CaseStudy {
		topos, err := pos.NewCaseStudyReplicas(pos.Virtual, n, pos.WithSeed(11))
		if err != nil {
			t.Fatal(err)
		}
		return topos
	}
	sharded := build()
	got, err := pos.ShardedSweep(sharded, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, topo := range sharded {
		topo.Close()
	}

	// Sequential oracle: each replica runs its round-robin subsequence of
	// the campaign-order point list, exactly as the shard driver does.
	seq := build()
	defer func() {
		for _, topo := range seq {
			topo.Close()
		}
	}()
	var pts [][2]float64
	for _, size := range cfg.Sizes {
		for _, rate := range cfg.RatesPPS {
			pts = append(pts, [2]float64{float64(size), float64(rate)})
		}
	}
	want := make([]pos.RunPoint, len(pts))
	for i, topo := range seq {
		for p := i; p < len(pts); p += n {
			pt, err := topo.DirectRun(int(pts[p][0]), pts[p][1], cfg.RuntimeSec)
			if err != nil {
				t.Fatal(err)
			}
			want[p] = pt
		}
	}
	if len(got) != len(want) {
		t.Fatalf("point counts differ: %d vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("point %d differs: sharded %+v != sequential %+v", i, got[i], want[i])
		}
	}
}
