package pipeline

import (
	"math/rand"
	"reflect"
	"testing"

	"coordbot/internal/community"
	"coordbot/internal/graph"
	"coordbot/internal/hypergraph"
	"coordbot/internal/projection"
	"coordbot/internal/redditgen"
	"coordbot/internal/stream"
	"coordbot/internal/tripoll"
)

// sameResults requires two runs over one ID space to publish the same
// survey: census with T and Step-3 scores, thresholded graph, components,
// partition and scored communities.
func sameResults(t *testing.T, what string, got, want *Result) {
	t.Helper()
	switch {
	case !reflect.DeepEqual(got.Triangles, want.Triangles):
		t.Fatalf("%s: triangles differ (%d vs %d)", what, len(got.Triangles), len(want.Triangles))
	case !got.Thresholded.Equal(want.Thresholded):
		t.Fatalf("%s: thresholded graphs differ", what)
	case !reflect.DeepEqual(got.Components, want.Components):
		t.Fatalf("%s: components differ (%d vs %d)", what, len(got.Components), len(want.Components))
	case (got.Partition == nil) != (want.Partition == nil) ||
		(want.Partition != nil && !got.Partition.Equal(want.Partition)):
		t.Fatalf("%s: partitions differ", what)
	case !reflect.DeepEqual(got.Communities, want.Communities):
		t.Fatalf("%s: communities differ (%d vs %d)", what, len(got.Communities), len(want.Communities))
	}
}

// oracleRun chains the retained single-threaded layer references —
// ProjectSequential, SurveySequential, per-triplet Evaluate,
// ConnectedComponents, Detect — into the pipeline Run must reproduce.
func oracleRun(t *testing.T, b *graph.BTM, cfg Config) *Result {
	t.Helper()
	ci, err := projection.ProjectSequential(b, cfg.Window, projection.Options{Exclude: cfg.Exclude, Restrict: cfg.Restrict})
	if err != nil {
		t.Fatal(err)
	}
	sopts := tripoll.Options{
		MinEdgeWeight:     cfg.MinEdgeWeight,
		MinTriangleWeight: cfg.MinTriangleWeight,
		MinTScore:         cfg.MinTScore,
	}
	var tris []tripoll.Triangle
	tripoll.SurveySequential(ci, sopts, func(tr tripoll.Triangle) { tris = append(tris, tr) })
	tripoll.SortTriangles(tris)
	res := &Result{Config: cfg, CI: ci, Thresholded: ci.ThresholdView(tripoll.EffectiveEdgeCut(sopts))}
	for _, tr := range tris {
		r := TriangleResult{Triangle: tr, T: tr.TScore(ci.PageCount)}
		if !cfg.SkipHypergraph {
			r.Hyper = hypergraph.Evaluate(b, hypergraph.Triplet{X: tr.X, Y: tr.Y, Z: tr.Z})
		}
		res.Triangles = append(res.Triangles, r)
	}
	res.Components = graph.ConnectedComponents(res.Thresholded)
	if cfg.Communities {
		ccfg := cfg.Community.Defaults()
		res.Partition = community.Detect(res.Thresholded, ccfg)
		res.Communities = community.ScoreCommunities(res.Partition, res.Thresholded, b, tris, ccfg.MinSize)
	}
	return res
}

// cycleDataset is a two-day stream long enough for a 12-hour horizon to
// churn: organic traffic plus two planted groups.
func cycleDataset() *redditgen.Dataset {
	return redditgen.Generate(redditgen.Config{
		Seed:  31,
		Start: 0,
		End:   2 * 24 * 3600,
		Organic: redditgen.OrganicConfig{
			Authors: 80, Pages: 40, Comments: 2500, PageHalfLife: 2 * 3600,
		},
		Botnets: []redditgen.BotnetSpec{
			{Kind: redditgen.SockpuppetChain, Name: "pups", Bots: 3, Pages: 30, SubsetSize: 3, MinDelay: 5, MaxDelay: 25},
			{Kind: redditgen.GPT2Ring, Name: "ring", Bots: 8, Pages: 60, SubsetSize: 5, MinDelay: 0, MaxDelay: 30},
		},
	})
}

// cycleConfig turns every stage on: T cut, validation and communities.
func cycleConfig() Config {
	return Config{
		Window:            projection.Window{Min: 0, Max: 60},
		MinTriangleWeight: 2,
		MinTScore:         0.02,
		Ranks:             2,
		Communities:       true,
		Community:         community.Config{MinSize: 2},
	}
}

const cycleHorizon = 12 * 3600

// slidingStep is one survey's inputs from a sliding-window stream: the
// store's snapshot, a BTM of the comments inside the horizon, and the
// authors whose windowed comments changed since the previous step.
type slidingStep struct {
	snap  *graph.CISnapshot
	btm   *graph.BTM
	dirty map[graph.VertexID]bool
}

// slidingSteps feeds comments through a SlidingProjector in random
// batches and records a step after each one.
func slidingSteps(t *testing.T, comments []graph.Comment, seed int64) []slidingStep {
	t.Helper()
	p, err := stream.NewSlidingProjectorShards(projection.Window{Min: 0, Max: 60}, cycleHorizon, projection.Options{}, 32)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	var steps []slidingStep
	var log []graph.Comment
	dirty := map[graph.VertexID]bool{}
	for lo := 0; lo < len(comments); {
		hi := min(lo+rng.Intn(200)+1, len(comments))
		if err := p.AddBatch(comments[lo:hi]); err != nil {
			t.Fatal(err)
		}
		for _, c := range comments[lo:hi] {
			log = append(log, c)
			dirty[c.Author] = true
		}
		lo = hi
		for len(log) > 0 && log[0].TS <= p.Watermark()-cycleHorizon {
			dirty[log[0].Author] = true
			log = log[1:]
		}
		steps = append(steps, slidingStep{p.Snapshot(), graph.BuildBTM(append([]graph.Comment(nil), log...), 0, 0), dirty})
		dirty = map[graph.VertexID]bool{}
	}
	return steps
}

// TestCycleWarmMatchesCold is the engine's core property: successive
// snapshots of one sliding-window store, fed to one warm Cycle, each
// publish exactly what a fresh Cycle computes cold on the same snapshot
// and BTM — with the T cut, validation and communities on — while every
// warm cache demonstrably engages.
func TestCycleWarmMatchesCold(t *testing.T) {
	cfg := cycleConfig()
	steps := slidingSteps(t, cycleDataset().Comments, 7)
	if len(steps) < 20 {
		t.Fatalf("stream too short: %d steps", len(steps))
	}
	warm := NewCycle(cfg, 0)
	var cached, hits, reused, patched int64
	for i, s := range steps {
		got, st := warm.Run(s.snap, s.btm, s.dirty)
		want, cst := NewCycle(cfg, 0).Run(s.snap, s.btm, nil)
		if cst.Delta || want.HyperCacheHits != 0 {
			t.Fatalf("step %d: a fresh Cycle ran warm", i)
		}
		if st.Delta != (i > 0) {
			t.Fatalf("step %d: Delta = %v", i, st.Delta)
		}
		sameResults(t, "warm vs cold", got, want)
		cached += int64(st.CachedTriangles)
		hits += int64(got.HyperCacheHits)
		reused += int64(got.Partition.ReusedComponents)
		patched = st.OrientPatchedEdges
	}
	if cached == 0 || hits == 0 || reused == 0 || patched == 0 {
		t.Fatalf("a warm cache never engaged: %d cached triangles, %d memo hits, %d reused components, %d patched edges",
			cached, hits, reused, patched)
	}
}

// TestCycleColdFallbacks pins when the engine keeps no warm state: a
// snapshot of another store, any non-snapshot graph, and a nil BTM.
func TestCycleColdFallbacks(t *testing.T) {
	cfg := cycleConfig()
	comments := cycleDataset().Comments[:1500]
	a := slidingSteps(t, comments, 3)
	b := slidingSteps(t, comments, 3) // same stream, another store
	last := len(a) - 1

	c := NewCycle(cfg, 0)
	c.Run(a[last].snap, a[last].btm, nil)
	got, st := c.Run(b[last].snap, b[last].btm, nil)
	if st.Delta {
		t.Fatal("a snapshot of another store ran the delta path")
	}
	want, _ := NewCycle(cfg, 0).Run(b[last].snap, b[last].btm, nil)
	sameResults(t, "other store", got, want)

	ci := a[last].snap.Materialize()
	for i := 0; i < 2; i++ {
		res, st := c.Run(ci, a[last].btm, nil)
		if st.Delta || res.HyperCacheHits != 0 {
			t.Fatalf("CIGraph run %d kept state: delta %v, %d memo hits", i, st.Delta, res.HyperCacheHits)
		}
	}
	if _, st := c.Run(a[last].snap, a[last].btm, nil); st.Delta {
		t.Fatal("a CIGraph run left snapshot state behind")
	}

	res, _ := NewCycle(cfg, 0).Run(ci, nil, nil)
	if !res.Config.SkipHypergraph || len(res.Triangles) == 0 {
		t.Fatalf("nil BTM: SkipHypergraph %v over %d triangles", res.Config.SkipHypergraph, len(res.Triangles))
	}
	for _, tr := range res.Triangles {
		if tr.Hyper != (hypergraph.Score{}) {
			t.Fatalf("nil BTM still validated %+v", tr)
		}
	}
}
