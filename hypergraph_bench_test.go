package coordbot_test

// Step-3 kernel benchmarks: the prefix-shared page-stamp EvaluateAll
// against a per-triplet Evaluate loop over the same triplets, on a
// campaign-shaped corpus (redditgen.LargeCampaign at a reduced organic
// scale), where large botnets put long (X, Y) runs into the census. Run
// with
//
//	go test -run '^$' -bench EvaluateAll -benchmem .

import (
	"fmt"
	"os"
	"sync"
	"testing"

	"coordbot/internal/graph"
	"coordbot/internal/hypergraph"
	"coordbot/internal/projection"
	"coordbot/internal/redditgen"
	"coordbot/internal/tripoll"
)

var (
	campaignOnce     sync.Once
	campaignBTM      *graph.BTM
	campaignTriplets []hypergraph.Triplet
	scoreSink        []hypergraph.Score
)

// campaignCensus returns the BTM of LargeCampaign(0.1) with its three
// smaller campaigns (20, 60 and 120 bots; the 200-bot one alone would add
// 1.3M triplets and make the Evaluate loop minutes-long in CI) and the
// sorted triplets of its cut-25 triangle census under a [0, 60s) window.
func campaignCensus(tb testing.TB) (*graph.BTM, []hypergraph.Triplet) {
	tb.Helper()
	campaignOnce.Do(func() {
		cfg := redditgen.LargeCampaign(0.1)
		cfg.Botnets = cfg.Botnets[:3]
		d := redditgen.Generate(cfg)
		campaignBTM = d.BTM()
		ci, err := projection.Project(campaignBTM, projection.Window{Min: 0, Max: 60},
			projection.Options{Exclude: d.Helpers})
		if err != nil {
			panic(err)
		}
		for _, tr := range tripoll.Survey(ci, tripoll.Options{MinTriangleWeight: 25}) {
			campaignTriplets = append(campaignTriplets, hypergraph.Triplet{X: tr.X, Y: tr.Y, Z: tr.Z})
		}
	})
	if len(campaignTriplets) == 0 {
		tb.Fatal("campaign census has no triangles")
	}
	return campaignBTM, campaignTriplets
}

// BenchmarkEvaluateAll times one EvaluateAll call over the whole census
// per op at 1 and 2 workers, and the per-triplet Evaluate loop it
// replaces.
func BenchmarkEvaluateAll(b *testing.B) {
	btm, ts := campaignCensus(b)
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			benchEvaluateAll(b, btm, ts, workers)
		})
	}
	b.Run("evaluate-loop", func(b *testing.B) { benchEvaluateLoop(b, btm, ts) })
}

func benchEvaluateAll(b *testing.B, btm *graph.BTM, ts []hypergraph.Triplet, workers int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		scoreSink = hypergraph.EvaluateAll(btm, ts, workers)
	}
	b.ReportMetric(float64(len(ts)), "triplets")
}

func benchEvaluateLoop(b *testing.B, btm *graph.BTM, ts []hypergraph.Triplet) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out := make([]hypergraph.Score, len(ts))
		for k, t := range ts {
			out[k] = hypergraph.Evaluate(btm, t)
		}
		scoreSink = out
	}
	b.ReportMetric(float64(len(ts)), "triplets")
}

// Floors for TestHypergraphGuard. The stamp kernel measured 24x a
// per-triplet Evaluate loop at one worker on a 2-core Xeon; 5x leaves room
// for noisy runners while failing any return to per-triplet merging. The
// allocation ceiling admits the output slice, one stamp array and one
// stamper per worker, and the goroutine bookkeeping — O(workers), where a
// per-triplet allocation would cost thousands.
const (
	guardEvaluateAllSpeedup = 5
	guardEvaluateAllAllocs  = 8 // plus 2 per worker
)

// TestHypergraphGuard enforces the Step-3 kernel's perf contract as ratios
// to the per-triplet loop rather than absolute times. Run by CI with
// BENCH_GUARD=1 (skipped otherwise — timings are meaningless under -race).
func TestHypergraphGuard(t *testing.T) {
	if os.Getenv("BENCH_GUARD") == "" {
		t.Skip("set BENCH_GUARD=1 to run the Step-3 kernel perf guard")
	}
	btm, ts := campaignCensus(t)
	loop := testing.Benchmark(func(b *testing.B) { benchEvaluateLoop(b, btm, ts) })
	for _, workers := range []int{1, 2, 4} {
		all := testing.Benchmark(func(b *testing.B) { benchEvaluateAll(b, btm, ts, workers) })
		speedup := float64(loop.NsPerOp()) / float64(all.NsPerOp())
		t.Logf("%d triplets, %d workers: EvaluateAll %dns/op, %d allocs/op; Evaluate loop %dns/op (%.1fx)",
			len(ts), workers, all.NsPerOp(), all.AllocsPerOp(), loop.NsPerOp(), speedup)
		if workers == 1 && speedup < guardEvaluateAllSpeedup {
			t.Errorf("EvaluateAll at 1 worker is %.1fx the Evaluate loop, want >= %dx", speedup, guardEvaluateAllSpeedup)
		}
		if ceil := int64(guardEvaluateAllAllocs + 2*workers); all.AllocsPerOp() > ceil {
			t.Errorf("EvaluateAll at %d workers makes %d allocs/op, want <= %d (per-triplet allocation?)",
				workers, all.AllocsPerOp(), ceil)
		}
	}
}
