package hypergraph

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"coordbot/internal/graph"
)

// btm: pages 0..3; authors 0,1,2 all hit pages 0,1; author 2 skips page 2.
func testBTM() *graph.BTM {
	return graph.BuildBTM([]graph.Comment{
		{Author: 0, Page: 0, TS: 0},
		{Author: 1, Page: 0, TS: 5},
		{Author: 2, Page: 0, TS: 1000},
		{Author: 0, Page: 1, TS: 10},
		{Author: 1, Page: 1, TS: 12},
		{Author: 2, Page: 1, TS: 14},
		{Author: 0, Page: 2, TS: 20},
		{Author: 1, Page: 2, TS: 22},
		{Author: 0, Page: 3, TS: 30},
	}, 0, 0)
}

func TestNewTripletCanonical(t *testing.T) {
	tr := NewTriplet(9, 2, 5)
	if tr.X != 2 || tr.Y != 5 || tr.Z != 9 {
		t.Fatalf("triplet = %+v", tr)
	}
}

func TestNewTripletPanicsOnDuplicate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewTriplet(1, 2, 1)
}

func TestTripletWeight(t *testing.T) {
	b := testBTM()
	if w := TripletWeight(b, NewTriplet(0, 1, 2)); w != 2 {
		t.Fatalf("w_xyz = %d, want 2 (pages 0 and 1)", w)
	}
}

func TestCommonPages(t *testing.T) {
	b := testBTM()
	ps := CommonPages(b, NewTriplet(0, 1, 2))
	if len(ps) != 2 || ps[0] != 0 || ps[1] != 1 {
		t.Fatalf("common pages = %v, want [0 1]", ps)
	}
}

func TestCScore(t *testing.T) {
	b := testBTM()
	// p_0 = 4, p_1 = 3, p_2 = 2; w = 2 → C = 6/9.
	got := CScore(b, NewTriplet(0, 1, 2))
	want := 6.0 / 9.0
	if got != want {
		t.Fatalf("C = %f, want %f", got, want)
	}
}

func TestEvaluateRecord(t *testing.T) {
	b := testBTM()
	s := Evaluate(b, NewTriplet(0, 1, 2))
	if s.W != 2 || s.PX != 4 || s.PY != 3 || s.PZ != 2 {
		t.Fatalf("record = %+v", s)
	}
}

func TestWindowedTripletWeight(t *testing.T) {
	b := testBTM()
	tr := NewTriplet(0, 1, 2)
	// Page 0 spread is exactly 1000 (author 2 is late); page 1 spread is
	// 4. The window is strict (spread < delta), matching the half-open
	// projection window.
	if w := WindowedTripletWeight(b, tr, 4); w != 0 {
		t.Fatalf("delta=4: %d, want 0 (spread 4 not < 4)", w)
	}
	if w := WindowedTripletWeight(b, tr, 5); w != 1 {
		t.Fatalf("delta=5: %d, want 1", w)
	}
	if w := WindowedTripletWeight(b, tr, 1000); w != 1 {
		t.Fatalf("delta=1000: %d, want 1 (spread 1000 not < 1000)", w)
	}
	if w := WindowedTripletWeight(b, tr, 1001); w != 2 {
		t.Fatalf("delta=1001: %d, want 2", w)
	}
}

func TestWindowedEqualsUnwindowedForHugeDelta(t *testing.T) {
	b := testBTM()
	tr := NewTriplet(0, 1, 2)
	if WindowedTripletWeight(b, tr, 1<<40) != TripletWeight(b, tr) {
		t.Fatal("huge delta must equal unwindowed weight")
	}
}

func TestSpreadWithinMultiComment(t *testing.T) {
	// Author times interleave; only the middle combination is tight.
	tx := []int64{0, 100}
	ty := []int64{50, 200}
	tz := []int64{55, 300}
	if !spreadWithin(tx, ty, tz, 51) {
		t.Fatal("should find (100, 50, 55) with spread 50 < 51")
	}
	if spreadWithin(tx, ty, tz, 50) {
		t.Fatal("spread 50 must not satisfy strict delta 50")
	}
	if spreadWithin(tx, ty, tz, 10) {
		t.Fatal("no combination within 10")
	}
}

// evaluateOracle is the per-triplet reference EvaluateAll must equal.
func evaluateOracle(b *graph.BTM, ts []Triplet) []Score {
	want := make([]Score, len(ts))
	for i, tr := range ts {
		want[i] = Evaluate(b, tr)
	}
	SortScores(want)
	return want
}

func checkEvaluateAll(t *testing.T, name string, b *graph.BTM, ts []Triplet) {
	t.Helper()
	want := evaluateOracle(b, ts)
	in := slices.Clone(ts)
	for _, ranks := range []int{-1, 0, 1, 2, 4} {
		got := EvaluateAll(b, ts, ranks)
		if !slices.Equal(ts, in) {
			t.Fatalf("%s ranks %d: input mutated", name, ranks)
		}
		if len(got) != len(want) {
			t.Fatalf("%s ranks %d: %d scores, want %d", name, ranks, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s ranks %d: score %d = %+v, want %+v", name, ranks, i, got[i], want[i])
			}
		}
	}
}

// randomTriplets draws n canonical triplets over authors [0, authors).
func randomTriplets(rng *rand.Rand, n, authors int) []Triplet {
	var ts []Triplet
	for len(ts) < n {
		a := graph.VertexID(rng.Intn(authors))
		bb := graph.VertexID(rng.Intn(authors))
		c := graph.VertexID(rng.Intn(authors))
		if a == bb || bb == c || a == c {
			continue
		}
		ts = append(ts, NewTriplet(a, bb, c))
	}
	return ts
}

// TestEvaluateAllMatchesSequential: the stamp kernel equals per-triplet
// Evaluate plus SortScores at every worker count, on sorted and unsorted
// input, duplicates, authors without pages, and long shared (X, Y) runs
// that straddle chunk boundaries.
func TestEvaluateAllMatchesSequential(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// Authors 40..59 have no comments: zero pages.
		cs := make([]graph.Comment, 2000)
		for i := range cs {
			cs[i] = graph.Comment{
				Author: graph.VertexID(rng.Intn(40)),
				Page:   graph.VertexID(rng.Intn(40)),
				TS:     int64(rng.Intn(3600)),
			}
		}
		b := graph.BuildBTM(cs, 60, 50)

		random := randomTriplets(rng, 300, 60)
		checkEvaluateAll(t, "unsorted", b, random)

		sorted := slices.Clone(random)
		slices.SortFunc(sorted, compareTriplets)
		checkEvaluateAll(t, "sorted", b, sorted)

		dups := append(slices.Clone(random[:100]), random[:50]...)
		dups = append(dups, random[10], random[10], random[10])
		checkEvaluateAll(t, "duplicates", b, dups)

		// One author heads every run, and one (X, Y) run spans far more
		// triplets than a chunk.
		var runs []Triplet
		for y := graph.VertexID(1); y < 60; y++ {
			for z := y + 1; z < 60; z++ {
				runs = append(runs, Triplet{X: 0, Y: y, Z: z})
			}
		}
		for rep := 0; rep < 3; rep++ {
			for z := graph.VertexID(2); z < 60; z++ {
				runs = append(runs, Triplet{X: 0, Y: 1, Z: z})
			}
		}
		checkEvaluateAll(t, "long runs", b, runs)

		// Struct-literal triplets need not be canonical; Evaluate scores
		// them by set intersection and so must EvaluateAll.
		odd := []Triplet{{X: 7, Y: 3, Z: 5}, {X: 3, Y: 3, Z: 9}, {X: 9, Y: 2, Z: 9}, {X: 4, Y: 4, Z: 4}}
		checkEvaluateAll(t, "non-canonical", b, append(odd, random[:20]...))
	}
}

func TestEvaluateAllEmpty(t *testing.T) {
	if out := EvaluateAll(testBTM(), nil, 2); out != nil {
		t.Fatal("empty input should return nil")
	}
}

// An author past the end of the BTM panics in the caller's goroutine, as
// Evaluate does, at any worker count.
func TestEvaluateAllPanicsOutOfRange(t *testing.T) {
	b := testBTM()
	for _, ranks := range []int{1, 4} {
		for _, tr := range []Triplet{{X: 0, Y: 1, Z: 3}, {X: 7, Y: 8, Z: 9}, {X: 3, Y: 0, Z: 1}} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("ranks %d, %+v: no panic for an author out of range", ranks, tr)
					}
				}()
				EvaluateAll(b, []Triplet{NewTriplet(0, 1, 2), tr}, ranks)
			}()
		}
	}
}

// The stamp generation counter wraps by clearing the array; scores across
// the wrap are unchanged.
func TestStamperGenerationWrap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	b := randomBTM(rng, 1500, 30, 25)
	ts := randomTriplets(rng, 400, 30)
	slices.SortFunc(ts, compareTriplets)
	want := evaluateOracle(b, ts)
	for _, back := range []uint32{0, 1, 3, 500, 2000} {
		s := newStamper(b)
		s.gen = math.MaxUint32 - back
		for i := range s.stamp {
			s.stamp[i] = s.gen
		}
		got := make([]Score, len(ts))
		s.run(ts, got)
		if !slices.Equal(got, want) {
			t.Fatalf("gen MaxUint32-%d: scores differ across the wrap", back)
		}
	}
}

// xyRunBounds tiles the input exactly and never splits an (X, Y) run.
func TestXYRunBoundsTile(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ts := randomTriplets(rng, 200, 8)
	slices.SortFunc(ts, compareTriplets)
	for chunk := 1; chunk <= len(ts)+1; chunk++ {
		next := 0
		for k := 0; k*chunk < len(ts); k++ {
			lo, hi := xyRunBounds(ts, k*chunk, min((k+1)*chunk, len(ts)))
			if lo == hi {
				continue
			}
			if lo != next {
				t.Fatalf("chunk %d #%d starts at %d, want %d", chunk, k, lo, next)
			}
			if hi < len(ts) && sameXY(ts[hi-1], ts[hi]) {
				t.Fatalf("chunk %d #%d splits the run at %d", chunk, k, hi)
			}
			next = hi
		}
		if next != len(ts) {
			t.Fatalf("chunk %d: tiles end at %d, want %d", chunk, next, len(ts))
		}
	}
}

// FuzzEvaluateAll checks EvaluateAll against per-triplet Evaluate on
// fuzzer-built comment lists and triplets: each comment is two bytes
// (author, page), each triplet three bytes (X, Y, Z), any order.
func FuzzEvaluateAll(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 2, 0, 0, 1, 1, 1, 2, 1, 0, 2}, []byte{0, 1, 2, 0, 1, 2, 2, 1, 0}, uint8(2))
	f.Add([]byte{}, []byte{0, 1, 2}, uint8(1))
	f.Add([]byte{3, 4, 5, 4, 3, 5, 9, 9, 3, 9, 4, 9, 5, 9}, []byte{3, 4, 5, 3, 4, 9, 3, 5, 9, 4, 5, 9, 3, 4, 5}, uint8(3))
	f.Fuzz(func(t *testing.T, comments, triplets []byte, ranks uint8) {
		const authors, pages = 12, 10
		cs := make([]graph.Comment, 0, len(comments)/2)
		for i := 0; i+1 < len(comments); i += 2 {
			cs = append(cs, graph.Comment{
				Author: graph.VertexID(comments[i] % authors),
				Page:   graph.VertexID(comments[i+1] % pages),
				TS:     int64(i),
			})
		}
		b := graph.BuildBTM(cs, authors, pages)
		var ts []Triplet
		for i := 0; i+2 < len(triplets); i += 3 {
			ts = append(ts, Triplet{
				X: graph.VertexID(triplets[i] % authors),
				Y: graph.VertexID(triplets[i+1] % authors),
				Z: graph.VertexID(triplets[i+2] % authors),
			})
		}
		got := EvaluateAll(b, ts, int(ranks%5))
		want := evaluateOracle(b, ts)
		if len(ts) == 0 {
			want = nil
		}
		if !slices.Equal(got, want) {
			t.Fatalf("EvaluateAll = %+v, want %+v", got, want)
		}
	})
}

func TestTopKByWeight(t *testing.T) {
	ss := []Score{
		{Triplet: NewTriplet(1, 2, 3), W: 5},
		{Triplet: NewTriplet(4, 5, 6), W: 9},
		{Triplet: NewTriplet(7, 8, 9), W: 1},
	}
	top := TopKByWeight(ss, 2)
	if len(top) != 2 || top[0].W != 9 || top[1].W != 5 {
		t.Fatalf("TopK = %+v", top)
	}
	if ss[0].W != 5 {
		t.Fatal("input mutated")
	}
}

func TestQuickHypergraphInvariants(t *testing.T) {
	// Properties: w_xyz <= min(p_x,p_y,p_z); C in [0,1]; w matches a
	// brute-force recount; windowed <= unwindowed, monotone in delta.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := randomBTM(rng, 400, 20, 15)
		for trial := 0; trial < 10; trial++ {
			x := graph.VertexID(rng.Intn(20))
			y := graph.VertexID(rng.Intn(20))
			z := graph.VertexID(rng.Intn(20))
			if x == y || y == z || x == z {
				continue
			}
			tr := NewTriplet(x, y, z)
			w := TripletWeight(b, tr)
			minP := b.PageCount(tr.X)
			if p := b.PageCount(tr.Y); p < minP {
				minP = p
			}
			if p := b.PageCount(tr.Z); p < minP {
				minP = p
			}
			if w > minP {
				return false
			}
			if c := CScore(b, tr); c < 0 || c > 1 {
				return false
			}
			// Brute force w.
			brute := 0
			for p := 0; p < b.NumPages(); p++ {
				hx, hy, hz := false, false, false
				for _, at := range b.PageNeighborhood(graph.VertexID(p)) {
					switch at.Author {
					case tr.X:
						hx = true
					case tr.Y:
						hy = true
					case tr.Z:
						hz = true
					}
				}
				if hx && hy && hz {
					brute++
				}
			}
			if w != brute {
				return false
			}
			w1 := WindowedTripletWeight(b, tr, 10)
			w2 := WindowedTripletWeight(b, tr, 100)
			if w1 > w2 || w2 > w {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func randomBTM(rng *rand.Rand, n, authors, pages int) *graph.BTM {
	cs := make([]graph.Comment, n)
	for i := range cs {
		cs[i] = graph.Comment{
			Author: graph.VertexID(rng.Intn(authors)),
			Page:   graph.VertexID(rng.Intn(pages)),
			TS:     int64(rng.Intn(3600)),
		}
	}
	return graph.BuildBTM(cs, authors, pages)
}
