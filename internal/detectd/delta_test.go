// Tests for the incremental delta-survey path: across randomized ingest
// and eviction, every published cycle must equal the full batch survey of
// the exact snapshot it saw — byte-identical triangle censuses, scores,
// and components — while actually exercising the cache (delta cycles,
// carried-over triangles, memoized validations).
package detectd

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"coordbot/internal/graph"
	"coordbot/internal/pipeline"
	"coordbot/internal/projection"
	"coordbot/internal/redditgen"
)

func deltaConfig() Config {
	return Config{
		Window:             projection.Window{Min: 0, Max: 60},
		Horizon:            12 * 3600,
		MinTriangleWeight:  2,
		MinTScore:          0.02,
		ValidateHypergraph: true,
		ClampLate:          true,
		Shards:             32,
	}
}

// surveyOracle reruns the survey cold — a fresh engine, no memo, no
// cached census or partition — on the exact inputs a published cycle saw
// (its frozen snapshot and windowed BTM).
func surveyOracle(t *testing.T, cfg Config, sr *SurveyResult) *pipeline.Result {
	t.Helper()
	want, st := pipeline.NewCycle(cfg.pipelineConfig(), 0).Run(sr.snap, sr.btm, nil)
	if st.Delta || want.HyperCacheHits != 0 {
		t.Fatalf("cycle %d: cold oracle ran warm (delta %v, %d memo hits)", sr.Cycle, st.Delta, want.HyperCacheHits)
	}
	return want
}

func surveysEqual(t *testing.T, cycle int64, got, want *pipeline.Result) {
	t.Helper()
	if len(got.Triangles) != len(want.Triangles) {
		t.Fatalf("cycle %d: %d triangles, oracle %d", cycle, len(got.Triangles), len(want.Triangles))
	}
	for i := range want.Triangles {
		g, w := got.Triangles[i], want.Triangles[i]
		if g.Triangle != w.Triangle || g.T != w.T || g.Hyper.W != w.Hyper.W || g.Hyper.C != w.Hyper.C {
			t.Fatalf("cycle %d triangle %d: got %+v, oracle %+v", cycle, i, g, w)
		}
	}
	if !got.Thresholded.Equal(want.Thresholded) {
		t.Fatalf("cycle %d: thresholded graph differs from oracle", cycle)
	}
	if len(got.Components) != len(want.Components) {
		t.Fatalf("cycle %d: %d components, oracle %d", cycle, len(got.Components), len(want.Components))
	}
	if (got.Partition == nil) != (want.Partition == nil) ||
		(want.Partition != nil && !got.Partition.Equal(want.Partition)) {
		t.Fatalf("cycle %d: partition differs from oracle", cycle)
	}
	if !reflect.DeepEqual(got.Communities, want.Communities) {
		t.Fatalf("cycle %d: %d scored communities, oracle %d", cycle, len(got.Communities), len(want.Communities))
	}
}

// TestDeltaSurveyMatchesFullOracle is the tentpole property: drive the
// daemon with randomized batch sizes over a stream long enough to churn
// the sliding window (ingest + eviction dirt), survey after every batch,
// and require each published result to be byte-identical to a full
// re-survey of its own snapshot. The cache must also demonstrably work:
// all cycles after the first run the delta path, triangles carry over,
// and hypergraph validations hit the memo.
func TestDeltaSurveyMatchesFullOracle(t *testing.T) {
	ds := redditgen.Generate(redditgen.Config{
		Seed:  31,
		Start: 0,
		End:   2 * 24 * 3600,
		Organic: redditgen.OrganicConfig{
			Authors: 80, Pages: 40, Comments: 2500, PageHalfLife: 2 * 3600,
		},
		Botnets: []redditgen.BotnetSpec{{
			Kind: redditgen.SockpuppetChain, Name: "pups",
			Bots: 3, Pages: 30, SubsetSize: 3,
			MinDelay: 5, MaxDelay: 25,
		}},
	})
	cfg := deltaConfig()
	s, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	var surveyed int
	for lo := 0; lo < len(ds.Comments); {
		hi := lo + rng.Intn(200) + 1
		if hi > len(ds.Comments) {
			hi = len(ds.Comments)
		}
		s.Apply(ds.Comments[lo:hi])
		lo = hi
		sr, err := s.SurveyNow()
		if err != nil {
			t.Fatal(err)
		}
		if sr.Reused {
			continue
		}
		surveyed++
		if surveyed > 1 && !sr.Delta {
			t.Fatalf("cycle %d fell back to a full resurvey", sr.Cycle)
		}
		if sr.Delta && sr.DirtyShards > s.proj.NumShards() {
			t.Fatalf("cycle %d: %d dirty shards of %d", sr.Cycle, sr.DirtyShards, s.proj.NumShards())
		}
		surveysEqual(t, sr.Cycle, sr.Result, surveyOracle(t, cfg, sr))
	}
	if surveyed < 10 {
		t.Fatalf("stream too short: only %d live cycles", surveyed)
	}
	if s.DeltaCycles() == 0 || s.FullResurveys() != 1 {
		t.Fatalf("path split wrong: %d delta, %d full", s.DeltaCycles(), s.FullResurveys())
	}
	if s.TrianglesCached() == 0 {
		t.Fatal("no triangles ever carried over — cache inert")
	}
	if s.HyperCacheHits() == 0 {
		t.Fatal("no hypergraph validations served from the memo")
	}
	if s.OrientPatchedEdges() == 0 {
		t.Fatal("delta cycles never patched the persistent orientation")
	}
}

// TestOrientRebuildPolicies: the persistent orientation's rebuild policy
// is a pure perf knob. Under "re-freeze after every drifted batch"
// (negative OrientRebuildFrac) and "never re-freeze" (huge fraction) the
// published surveys still match the full oracle exactly, while the
// orient_* counters reflect the policy.
func TestOrientRebuildPolicies(t *testing.T) {
	ds := snapshotDataset()
	for _, tc := range []struct {
		name string
		frac float64
	}{
		{"rebuild-every-batch", -1},
		{"never-rebuild", 1e9},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := deltaConfig()
			cfg.OrientRebuildFrac = tc.frac
			s, err := NewService(cfg)
			if err != nil {
				t.Fatal(err)
			}
			const batch = 250
			var last *SurveyResult
			for lo := 0; lo < len(ds.Comments); lo += batch {
				hi := lo + batch
				if hi > len(ds.Comments) {
					hi = len(ds.Comments)
				}
				s.Apply(ds.Comments[lo:hi])
				sr, err := s.SurveyNow()
				if err != nil {
					t.Fatal(err)
				}
				surveysEqual(t, sr.Cycle, sr.Result, surveyOracle(t, cfg, sr))
				last = sr
			}
			if s.DeltaCycles() == 0 {
				t.Fatal("stream never took the delta path")
			}
			if s.OrientPatchedEdges() == 0 {
				t.Fatal("no edge patches were ever applied")
			}
			if tc.frac < 0 && last.OrientRebuilds == 0 {
				t.Fatal("rebuild-every-batch policy never re-froze the order")
			}
			if tc.frac > 1 && (last.OrientRebuilds != 0 || last.OrientEpoch != 0) {
				t.Fatalf("never-rebuild policy re-froze anyway: epoch %d, rebuilds %d",
					last.OrientEpoch, last.OrientRebuilds)
			}
		})
	}
}

// TestFullResurveyModeMatchesDelta: a daemon fed the stream in fixed
// batches publishes, cycle for cycle, exactly what a cold engine computes
// on the same snapshot and BTM — the full resurvey is the oracle, never a
// separate mode.
func TestFullResurveyModeMatchesDelta(t *testing.T) {
	ds := snapshotDataset()
	cfg := deltaConfig()
	a, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const batch = 400
	for lo := 0; lo < len(ds.Comments); lo += batch {
		hi := lo + batch
		if hi > len(ds.Comments) {
			hi = len(ds.Comments)
		}
		a.Apply(ds.Comments[lo:hi])
		ra, err := a.SurveyNow()
		if err != nil {
			t.Fatal(err)
		}
		surveysEqual(t, ra.Cycle, ra.Result, surveyOracle(t, cfg, ra))
	}
	if a.DeltaCycles() == 0 {
		t.Fatal("delta mode never took the incremental path")
	}
}

// TestDeltaSurveyConcurrentCycles exercises the survey cache under -race:
// two goroutines call SurveyNow concurrently (serialized on surveyMu)
// while a writer ingests and a reader polls score state, then a final
// quiescent cycle must still match the full oracle.
func TestDeltaSurveyConcurrentCycles(t *testing.T) {
	ds := snapshotDataset()
	cfg := deltaConfig()
	s, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := s.SurveyNow(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		ids := []graph.VertexID{0, 1, 2, 3}
		for {
			select {
			case <-stop:
				return
			default:
			}
			_, _ = s.PairScore(ids)
		}
	}()
	const batch = 100
	for lo := 0; lo < len(ds.Comments); lo += batch {
		hi := lo + batch
		if hi > len(ds.Comments) {
			hi = len(ds.Comments)
		}
		s.Apply(ds.Comments[lo:hi])
	}
	close(stop)
	wg.Wait()

	sr, err := s.SurveyNow()
	if err != nil {
		t.Fatal(err)
	}
	surveysEqual(t, sr.Cycle, sr.Result, surveyOracle(t, cfg, sr))
}
