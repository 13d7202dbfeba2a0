package coordbot_test

// Incremental-survey benchmark: the cost of one detection cycle after a
// small dirty batch (a handful of authors on one page — roughly 1% of the
// store's shards) on an 80k-user corpus, the daemon's delta cycle versus a
// cold pipeline.Cycle run on the same cycle's snapshot. The gap is what
// the per-shard version vector buys: the cold run rescans every edge to
// rebuild the pruned view and re-enumerates every triangle, the delta
// cycle re-filters only dirtied shards and re-surveys only triangles
// touching dirty vertices.
// Run with
//
//	go test -bench Incremental -benchmem
//
// or record the JSON report via TestWriteIncrementalBench.

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"

	"coordbot/internal/detectd"
	"coordbot/internal/graph"
	"coordbot/internal/pipeline"
	"coordbot/internal/projection"
	"coordbot/internal/redditgen"
)

const (
	incrementalAuthors  = 80000
	incrementalComments = 400000
	incrementalSpan     = 14 * 24 * 3600
	incrementalShards   = 4096
	// Authors per dirty batch: 4 co-commenting authors touch at most
	// C(4,2) edge shards plus 4 page-count shards — under 1% of the
	// store's 4096 shards.
	incrementalBatchAuthors = 4
)

// incrementalCorpus is the paper's detection regime at benchmark scale:
// 80k organic authors whose repeat co-activity stays far below the weight
// cut, plus planted coordinated rings that survive it. The pruned graph
// is the small suspicious core; the raw CI graph is the whole corpus.
func incrementalCorpus() *redditgen.Dataset {
	return redditgen.Generate(redditgen.Config{
		Seed: 7, Start: 0, End: incrementalSpan,
		Organic: redditgen.OrganicConfig{
			Authors:      incrementalAuthors,
			Pages:        20000,
			Comments:     incrementalComments,
			PageHalfLife: 3 * 3600,
		},
		AutoModerator: true,
		Botnets: []redditgen.BotnetSpec{
			{Kind: redditgen.GPT2Ring, Name: "gpt2", Bots: 12, Pages: 300,
				SubsetSize: 6, MinDelay: 1, MaxDelay: 45},
			{Kind: redditgen.ReshareRing, Name: "reshare", Bots: 10, Pages: 200,
				SubsetSize: 6, MinDelay: 1, MaxDelay: 6},
		},
	})
}

func incrementalConfig() detectd.Config {
	return detectd.Config{
		Window:            projection.Window{Min: 0, Max: 60},
		MinTriangleWeight: 60,
		ClampLate:         true,
		Shards:            incrementalShards,
		// Horizon exceeds the corpus span plus benchmark drift: the whole
		// 80k-user graph stays live, so the full path's edge rescan is
		// honest about steady-state cost.
		Horizon: incrementalSpan + 2*24*3600,
	}
}

// incrementalService ingests the corpus and runs the warm-up cycle (the
// unavoidable first full survey), returning the service and the event
// time dirty batches should continue from.
func incrementalService(b *testing.B, d *redditgen.Dataset) (*detectd.Service, int64) {
	b.Helper()
	s, err := detectd.NewService(incrementalConfig())
	if err != nil {
		b.Fatal(err)
	}
	const size = 2048
	for lo := 0; lo < len(d.Comments); lo += size {
		hi := lo + size
		if hi > len(d.Comments) {
			hi = len(d.Comments)
		}
		s.Apply(d.Comments[lo:hi])
	}
	if _, err := s.SurveyNow(); err != nil {
		b.Fatal(err)
	}
	return s, d.Comments[len(d.Comments)-1].TS + 1
}

// dirtyBatch builds cycle i's perturbation: a few rotating authors
// co-commenting on a rotating page within the projection window. Authors
// rotate through the upper (light-activity) half of the ID space — the
// steady-state case where fresh traffic lands on ordinary accounts, not
// on the already-suspicious core.
func dirtyBatch(i int, ts int64) []graph.Comment {
	batch := make([]graph.Comment, incrementalBatchAuthors)
	for j := range batch {
		id := incrementalAuthors/2 + (i*incrementalBatchAuthors+j)%(incrementalAuthors/2)
		batch[j] = graph.Comment{
			Author: graph.VertexID(id),
			Page:   graph.VertexID(i % 20000),
			TS:     ts + int64(j),
		}
	}
	return batch
}

// benchIncrementalCycles times one dirty cycle per iteration: the
// daemon's delta SurveyNow, or (fullResurvey) a cold pipeline.Cycle run
// on the snapshot that SurveyNow saw, with the daemon's cycle untimed.
func benchIncrementalCycles(b *testing.B, d *redditgen.Dataset, fullResurvey bool) {
	s, ts := incrementalService(b, d)
	cfg := incrementalConfig()
	cold := pipeline.Config{Window: cfg.Window, MinTriangleWeight: cfg.MinTriangleWeight, SkipHypergraph: true}
	var st pipeline.CycleStats
	runtime.GC() // keep setup garbage out of the measured cycles
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if fullResurvey {
			b.StopTimer()
		}
		s.Apply(dirtyBatch(i, ts))
		ts += 2
		sr, err := s.SurveyNow()
		if err != nil {
			b.Fatal(err)
		}
		if sr.Reused {
			b.Fatal("dirty cycle short-circuited as idle")
		}
		if !sr.Delta {
			b.Fatalf("cycle %d fell back to a full resurvey", sr.Cycle)
		}
		st = pipeline.CycleStats{Delta: true, DirtyShards: sr.DirtyShards,
			CachedTriangles: sr.CachedTriangles, ResurveyedTriangles: sr.ResurveyedTriangles}
		if fullResurvey {
			b.StartTimer()
			_, st = pipeline.NewCycle(cold, 0).Run(sr.Result.CI, nil, nil)
			if st.Delta {
				b.Fatalf("cycle %d: a fresh Cycle ran the delta path", sr.Cycle)
			}
		}
	}
	b.StopTimer()
	if b.N > 0 {
		b.ReportMetric(float64(st.DirtyShards), "dirty-shards")
		b.ReportMetric(float64(st.CachedTriangles), "tri-cached")
		b.ReportMetric(float64(st.ResurveyedTriangles), "tri-resurveyed")
	}
}

func BenchmarkIncrementalSurvey(b *testing.B) {
	d := incrementalCorpus()
	b.Run("delta", func(b *testing.B) { benchIncrementalCycles(b, d, false) })
	b.Run("full-resurvey", func(b *testing.B) { benchIncrementalCycles(b, d, true) })
}

// TestWriteIncrementalBench records the delta-vs-full cycle latencies to
// the JSON file named by BENCH_INCREMENTAL_OUT (skipped otherwise):
//
//	BENCH_INCREMENTAL_OUT=BENCH_incremental.json go test -run TestWriteIncrementalBench .
func TestWriteIncrementalBench(t *testing.T) {
	out := os.Getenv("BENCH_INCREMENTAL_OUT")
	if out == "" {
		t.Skip("set BENCH_INCREMENTAL_OUT=<path> to record the incremental benchmark")
	}
	d := incrementalCorpus()
	delta := testing.Benchmark(func(b *testing.B) { benchIncrementalCycles(b, d, false) })
	full := testing.Benchmark(func(b *testing.B) { benchIncrementalCycles(b, d, true) })
	speedup := float64(full.NsPerOp()) / float64(delta.NsPerOp())
	report := map[string]any{
		"benchmark": "incremental-survey",
		"corpus": benchRuntime(map[string]any{
			"authors":   incrementalAuthors,
			"comments":  incrementalComments,
			"span_days": 14,
		}, 1, incrementalShards),
		"dirty_batch": map[string]any{
			"authors":          incrementalBatchAuthors,
			"dirty_shards":     delta.Extra["dirty-shards"],
			"shard_dirty_frac": delta.Extra["dirty-shards"] / incrementalShards,
		},
		"delta_cycle": map[string]any{
			"latency_ms":     float64(delta.NsPerOp()) / 1e6,
			"cycles":         delta.N,
			"allocs_per_op":  delta.AllocsPerOp(),
			"tri_cached":     delta.Extra["tri-cached"],
			"tri_resurveyed": delta.Extra["tri-resurveyed"],
		},
		"full_cycle": map[string]any{
			"latency_ms":    float64(full.NsPerOp()) / 1e6,
			"cycles":        full.N,
			"allocs_per_op": full.AllocsPerOp(),
		},
		"speedup": speedup,
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("delta %.3f ms vs full %.2f ms per cycle -> %.1fx -> %s",
		float64(delta.NsPerOp())/1e6, float64(full.NsPerOp())/1e6, speedup, out)
	if speedup < 10 {
		t.Errorf("delta speedup %.1fx below the 10x target", speedup)
	}
}
