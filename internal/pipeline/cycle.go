package pipeline

import (
	"context"
	"runtime/pprof"
	"time"

	"coordbot/internal/community"
	"coordbot/internal/graph"
	"coordbot/internal/hypergraph"
	"coordbot/internal/tripoll"
)

// Cycle is the survey-cycle engine: Steps 2–3, the component census and
// the optional community stage over one projected CI graph. Batch Run is a
// fresh Cycle run once (cold); the streaming daemon keeps one Cycle and
// runs it on every snapshot of its live store (warm).
//
// A run keeps warm state only when its graph is a *graph.CISnapshot. The
// next snapshot of the same store then takes the delta path: the
// per-shard version vectors give the dirty vertex set, the pruned view is
// re-filtered shard by shard (ThresholdDelta), the persistent orientation
// is patched from the pruned edge diff, only triangles touching a dirty
// vertex are re-enumerated and merged with the surviving census, Step-3
// scores are served from a per-triplet memo, and communities warm-start
// from the previous partition. Every warm result is identical to a cold
// run on the same inputs. A Cycle is not safe for concurrent use.
type Cycle struct {
	cfg         Config
	rebuildFrac float64

	// Warm state, all describing snap (nil after a non-snapshot run). Run
	// clears it before doing any work, so a run that panics midway leaves
	// a cold engine, never a half-patched orientation attributed to pruned.
	snap *graph.CISnapshot
	// pruned is snap thresholded at the survey's edge cut.
	pruned *graph.CISnapshot
	// tris is the weight-thresholded census of pruned in SortTriangles
	// order, deliberately NOT T-score filtered: T depends on live page
	// counts, so the cut reruns every cycle.
	tris []tripoll.Triangle
	// hyper memoizes Step-3 scores per triplet (nil without validation).
	hyper map[hypergraph.Triplet]hypergraph.Score
	// oriented is the persistent stable-epoch orientation of pruned, which
	// the next delta run patches in place.
	oriented *tripoll.Oriented
	// partition is pruned's community assignment (nil without
	// Config.Communities).
	partition *community.Partition
}

// CycleStats describes how one Run went about its work.
type CycleStats struct {
	// Delta reports that the run took the incremental path.
	Delta bool
	// DirtyShards / DirtyVertices size the diff a delta run surveyed; a
	// cold run reports the whole graph (all shards, every author).
	DirtyShards, DirtyVertices int
	// CachedTriangles / ResurveyedTriangles split the weight-thresholded
	// census (before the T cut) into carried-over and freshly enumerated
	// triangles; a cold run reports everything as resurveyed.
	CachedTriangles, ResurveyedTriangles int
	// OrientEpoch / OrientPatchedEdges / OrientRebuilds are the persistent
	// orientation's counters after the run (tripoll.Oriented).
	OrientEpoch, OrientPatchedEdges, OrientRebuilds int64
}

// NewCycle returns a cold engine for cfg (Window, Exclude and Restrict
// are Step-1 settings and ignored here). rebuildFrac is the drift fraction
// at which a patched orientation re-freezes its order: 0 keeps the
// tripoll default, a negative value re-freezes after every drifted patch.
func NewCycle(cfg Config, rebuildFrac float64) *Cycle {
	return &Cycle{cfg: cfg, rebuildFrac: rebuildFrac}
}

// Run surveys ci, validates the surviving triangles against b, and takes
// the component census and, with Config.Communities, the partition. b may
// be nil, which skips Step 3 as if SkipHypergraph were set. hyperDirty
// names the authors whose comments in b changed since the previous Run's
// b; memoized Step-3 scores touching them are dropped. It only matters
// on a delta run.
func (c *Cycle) Run(ci graph.CIView, b *graph.BTM, hyperDirty map[graph.VertexID]bool) (*Result, CycleStats) {
	cfg := c.cfg
	if b == nil {
		cfg.SkipHypergraph = true
	}
	res := &Result{Config: cfg, CI: ci}
	prev := *c
	*c = Cycle{cfg: c.cfg, rebuildFrac: c.rebuildFrac}

	// Step 2: diff, threshold, orient and enumerate. The survey's edge cut
	// equals the component census's, so one pruned view serves both.
	t0 := time.Now()
	var st CycleStats
	snap, isSnap := ci.(*graph.CISnapshot)
	var dirty map[graph.VertexID]bool
	if isSnap && prev.snap != nil {
		dirty, st.DirtyShards, st.Delta = snap.DirtyVertices(prev.snap)
	}
	if !st.Delta {
		prev = Cycle{} // a cold run carries nothing over
	}
	sopts := tripoll.Options{
		MinEdgeWeight:     cfg.MinEdgeWeight,
		MinTriangleWeight: cfg.MinTriangleWeight,
		Ranks:             cfg.Ranks,
	}
	cut := tripoll.EffectiveEdgeCut(sopts)
	var (
		thresholded graph.CIView
		pruned      *graph.CISnapshot
		o           *tripoll.Oriented
		tris        []tripoll.Triangle
	)
	if st.Delta {
		// A triangle's weights changed only if one of its edges did, which
		// dirties both endpoints: cached triangles with no dirty vertex are
		// exact, and SurveyDirty emits precisely the rest.
		pruned = snap.ThresholdDelta(prev.snap, prev.pruned, cut)
		if patches, _, ok := pruned.EdgePatches(prev.pruned); ok {
			prev.oriented.ApplyPatches(patches)
			o = prev.oriented
		} else {
			o = c.orient(pruned)
		}
		kept := make([]tripoll.Triangle, 0, len(prev.tris))
		for _, tr := range prev.tris {
			if !dirty[tr.X] && !dirty[tr.Y] && !dirty[tr.Z] {
				kept = append(kept, tr)
			}
		}
		var fresh []tripoll.Triangle
		o.SurveyDirty(sopts, dirty, nil, func(tr tripoll.Triangle) { fresh = append(fresh, tr) })
		tripoll.SortTriangles(fresh)
		tris = tripoll.MergeSorted(kept, fresh)
		thresholded = pruned
		st.DirtyVertices = len(dirty)
		st.CachedTriangles, st.ResurveyedTriangles = len(kept), len(fresh)
	} else {
		thresholded = ci.ThresholdView(cut)
		pruned, _ = thresholded.(*graph.CISnapshot)
		o = c.orient(thresholded)
		tris = o.SurveyParallel(sopts, nil)
		if isSnap {
			st.DirtyShards = snap.NumShards()
		}
		st.DirtyVertices = ci.NumAuthors()
		st.ResurveyedTriangles = len(tris)
	}
	// The T cut runs on the full census, against the current page counts.
	res.Triangles = make([]TriangleResult, 0, len(tris))
	for _, tr := range tris {
		t := tr.TScore(ci.PageCount)
		if cfg.MinTScore > 0 && t < cfg.MinTScore {
			continue
		}
		res.Triangles = append(res.Triangles, TriangleResult{Triangle: tr, T: t})
	}
	res.Timings.Survey = time.Since(t0)

	// Step 3: hypergraph validation, memoized across snapshot runs.
	t0 = time.Now()
	hyper := prev.hyper
	for t := range hyper {
		if hyperDirty[t.X] || hyperDirty[t.Y] || hyperDirty[t.Z] {
			delete(hyper, t)
		}
	}
	if hyper == nil && isSnap && !cfg.SkipHypergraph {
		hyper = make(map[hypergraph.Triplet]hypergraph.Score)
	}
	if !cfg.SkipHypergraph && len(res.Triangles) > 0 {
		missing := make([]hypergraph.Triplet, 0, len(res.Triangles))
		missingAt := make([]int, 0, len(res.Triangles))
		for i, tr := range res.Triangles {
			t := hypergraph.Triplet{X: tr.X, Y: tr.Y, Z: tr.Z}
			if sc, ok := hyper[t]; ok {
				res.Triangles[i].Hyper = sc
				res.HyperCacheHits++
				continue
			}
			missing = append(missing, t)
			missingAt = append(missingAt, i)
		}
		// missing keeps the sorted triplet order, so the sorted scores zip
		// back 1:1.
		for k, sc := range hypergraph.EvaluateAll(b, missing, cfg.Ranks) {
			res.Triangles[missingAt[k]].Hyper = sc
			if hyper != nil {
				hyper[missing[k]] = sc
			}
		}
	}
	res.Timings.Validate = time.Since(t0)

	// Components of the thresholded graph (Figures 1–2 artifacts).
	t0 = time.Now()
	res.Thresholded = thresholded
	res.Components = graph.ConnectedComponents(thresholded)
	res.Timings.Component = time.Since(t0)

	if cfg.Communities {
		t0 = time.Now()
		// Relabel the clustering section so profiles split it out of the
		// surrounding survey (or caller) phase.
		pprof.Do(context.Background(), pprof.Labels("phase", "communities"), func(context.Context) {
			ccfg := cfg.Community.Defaults()
			res.Partition = community.DetectWarm(thresholded, ccfg, prev.partition, dirty)
			kept := make([]tripoll.Triangle, len(res.Triangles))
			for i := range res.Triangles {
				kept[i] = res.Triangles[i].Triangle
			}
			res.Communities = community.ScoreCommunities(res.Partition, thresholded, b, kept, ccfg.MinSize)
		})
		res.Timings.Cluster = time.Since(t0)
	}

	st.OrientEpoch, st.OrientPatchedEdges, st.OrientRebuilds = o.Epoch(), o.PatchedEdges(), o.Rebuilds()
	if isSnap {
		c.snap, c.pruned, c.tris, c.hyper, c.oriented, c.partition = snap, pruned, tris, hyper, o, res.Partition
	}
	return res, st
}

// orient builds a fresh stable-epoch orientation of pruned with the
// engine's rebuild policy applied.
func (c *Cycle) orient(pruned graph.CIView) *tripoll.Oriented {
	o := tripoll.Orient(pruned.BuildAdjacency())
	switch {
	case c.rebuildFrac < 0:
		o.SetRebuildFrac(0) // re-freeze after any drifted patch batch
	case c.rebuildFrac > 0:
		o.SetRebuildFrac(c.rebuildFrac)
	}
	return o
}
