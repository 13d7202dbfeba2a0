// Package pipeline is the public face of the library: it chains the
// paper's three steps — bipartite projection, high-weight triangle survey,
// hypergraph validation — into a single configured run over a bipartite
// temporal multigraph, and evaluates detections against ground truth when
// one is available.
//
// A typical run:
//
//	res, err := pipeline.Run(btm, pipeline.Config{
//	        Window:            projection.Window{Min: 0, Max: 60},
//	        MinTriangleWeight: 25,
//	        Exclude:           helpers,
//	})
//
// res.Triangles carries, for every surviving triangle, both the CI-graph
// metrics (min edge weight, T score) and the hypergraph metrics (w_xyz,
// C score) — the paired series behind the paper's Figures 3–10.
//
// Everything after Step 1 is the Cycle engine (cycle.go). Run is Step 1
// followed by one cold Cycle run; the streaming daemon (package detectd)
// keeps one Cycle and runs it warm on every snapshot of its live store,
// so batch and daemon results come from the same code.
package pipeline

import (
	"fmt"
	"time"

	"coordbot/internal/community"
	"coordbot/internal/graph"
	"coordbot/internal/hypergraph"
	"coordbot/internal/projection"
	"coordbot/internal/tripoll"
)

// Config parameterizes a full three-step run.
type Config struct {
	// Window is the projection delay window (δ1, δ2).
	Window projection.Window
	// MinEdgeWeight prunes CI edges before the survey (0 = no pruning
	// beyond MinTriangleWeight).
	MinEdgeWeight uint32
	// MinTriangleWeight is the triangle min-edge-weight cutoff (the
	// paper uses 10 for the hexbin figures and 25 for the component
	// anecdotes).
	MinTriangleWeight uint32
	// MinTScore optionally thresholds on the normalized CI score.
	MinTScore float64
	// Exclude removes authors before projection (§3 helpers).
	Exclude map[graph.VertexID]bool
	// Restrict, when non-nil, projects only the listed authors — the
	// paper's §2.2 targeted re-run: take a group of interest found with
	// a short window and re-project just those users with a longer one.
	Restrict map[graph.VertexID]bool
	// Ranks is the parallelism of Steps 1–3 (<= 0 = default).
	Ranks int
	// Sharded projects Step 1 into the lock-striped ShardedCI store via
	// the owner-computes merge (projection.ProjectSharded) instead of the
	// map-backed graph — the batch path over the same store the streaming
	// daemon runs on. Steps 2–3 are unaffected (they consume the CIView
	// interface).
	Sharded bool
	// SkipHypergraph skips Step 3 (for projection/survey-only studies).
	SkipHypergraph bool
	// Communities enables the clustering stage: after the survey, the
	// thresholded CI graph is partitioned (Leiden or Label Propagation
	// per Community.Algorithm) and each community scored with the
	// generalized coordination metrics — the layer between the triangle
	// census and the operator. Off by default: triangle-only studies pay
	// nothing.
	Communities bool
	// Community parameterizes the clustering stage (zero value = Leiden,
	// resolution 1.0, min size 3, seed 1).
	Community community.Config
}

// TriangleResult pairs one triangle's CI-graph metrics with its hypergraph
// validation.
type TriangleResult struct {
	tripoll.Triangle
	// T is the normalized CI coordination score T(x,y,z), equation 7.
	T float64
	// Hyper is the Step-3 record (W = w_xyz, C = equation 4). Zero when
	// SkipHypergraph is set.
	Hyper hypergraph.Score
}

// Timings records wall time per step.
type Timings struct {
	Project   time.Duration
	Survey    time.Duration
	Validate  time.Duration
	Component time.Duration
	Cluster   time.Duration
}

// Result is the output of a Run.
type Result struct {
	Config Config
	// CI is the full projected common interaction graph: a map-backed
	// *graph.CIGraph for batch runs, or a sharded *graph.CISnapshot for
	// daemon snapshot surveys — both behind the read-only view interface.
	CI graph.CIView
	// Thresholded is CI restricted to edges >= MinTriangleWeight (or
	// MinEdgeWeight if higher) — the graph whose components the paper
	// draws in Figures 1–2.
	Thresholded graph.CIView
	// Components of the thresholded graph, largest first.
	Components []graph.Component
	// Triangles that survived the survey, each with hypergraph scores.
	Triangles []TriangleResult
	// HyperCacheHits counts Step-3 evaluations served from a warm Cycle's
	// per-triplet memo (0 on cold runs).
	HyperCacheHits int
	// Partition is the community assignment of the thresholded graph
	// (nil unless Config.Communities).
	Partition *community.Partition
	// Communities are the scored communities (>= Community.MinSize
	// members), ordered by coordination score descending.
	Communities []community.CommunityScore
	Timings     Timings
}

// Run executes the three-step pipeline on b.
func Run(b *graph.BTM, cfg Config) (*Result, error) {
	if err := cfg.Window.Validate(); err != nil {
		return nil, err
	}

	// Step 1: projection, then one cold survey cycle.
	t0 := time.Now()
	var ci graph.CIView
	var err error
	popts := projection.Options{Exclude: cfg.Exclude, Restrict: cfg.Restrict, Ranks: cfg.Ranks}
	if cfg.Sharded {
		ci, err = projection.ProjectSharded(b, cfg.Window, popts)
	} else {
		ci, err = projection.Project(b, cfg.Window, popts)
	}
	if err != nil {
		return nil, fmt.Errorf("pipeline: projection: %w", err)
	}
	project := time.Since(t0)
	res, _ := NewCycle(cfg, 0).Run(ci, b, nil)
	res.Timings.Project = project
	return res, nil
}

// FlaggedAuthors returns the union of authors appearing in surviving
// triangles — the pipeline's detection set.
func (r *Result) FlaggedAuthors() map[graph.VertexID]bool {
	out := make(map[graph.VertexID]bool)
	for _, tr := range r.Triangles {
		out[tr.X] = true
		out[tr.Y] = true
		out[tr.Z] = true
	}
	return out
}

// MetricSeries extracts the paired metric vectors behind the paper's
// figures: (T, C) for the score hexbins (Figures 3/5/7/9) and
// (minWeight, w_xyz) for the weight hexbins (Figures 4/6/8/10).
func (r *Result) MetricSeries() (ts, cs, minW, hyperW []float64) {
	n := len(r.Triangles)
	ts = make([]float64, n)
	cs = make([]float64, n)
	minW = make([]float64, n)
	hyperW = make([]float64, n)
	for i, tr := range r.Triangles {
		ts[i] = tr.T
		cs[i] = tr.Hyper.C
		minW[i] = float64(tr.MinWeight())
		hyperW[i] = float64(tr.Hyper.W)
	}
	return ts, cs, minW, hyperW
}

// Metrics scores a detection against ground truth.
type Metrics struct {
	TP, FP, FN        int
	Precision, Recall float64
	F1                float64
}

// Evaluate compares flagged authors to the true bot set.
func Evaluate(flagged, truth map[graph.VertexID]bool) Metrics {
	var m Metrics
	for a := range flagged {
		if truth[a] {
			m.TP++
		} else {
			m.FP++
		}
	}
	for a := range truth {
		if !flagged[a] {
			m.FN++
		}
	}
	if m.TP+m.FP > 0 {
		m.Precision = float64(m.TP) / float64(m.TP+m.FP)
	}
	if m.TP+m.FN > 0 {
		m.Recall = float64(m.TP) / float64(m.TP+m.FN)
	}
	if m.Precision+m.Recall > 0 {
		m.F1 = 2 * m.Precision * m.Recall / (m.Precision + m.Recall)
	}
	return m
}

// String renders metrics compactly.
func (m Metrics) String() string {
	return fmt.Sprintf("P=%.3f R=%.3f F1=%.3f (tp=%d fp=%d fn=%d)",
		m.Precision, m.Recall, m.F1, m.TP, m.FP, m.FN)
}
