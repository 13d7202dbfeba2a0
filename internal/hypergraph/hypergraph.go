// Package hypergraph implements Step 3 of the paper: validating candidate
// author triplets against the original bipartite temporal multigraph.
//
// For a triplet {x,y,z} it computes the hyperedge weight w_xyz — the number
// of distinct pages where all three authors commented (equation 2) — the
// per-author page counts p_x (equation 3), and the normalized triplet
// coordination score C(x,y,z) = 3·w_xyz/(p_x+p_y+p_z) (equation 4).
//
// It also implements the paper's §4.3 future-work extension: time-windowed
// hyperedges, counting only pages where the three authors each have a
// comment inside some span of at most Δ seconds. Windowing restores a
// provable bound against CI-graph triangle weights (see
// WindowedTripletWeight).
package hypergraph

import (
	"cmp"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"coordbot/internal/graph"
)

// Triplet is an unordered author triple, stored sorted X < Y < Z.
type Triplet struct {
	X, Y, Z graph.VertexID
}

// NewTriplet returns the canonical (sorted) triplet of three distinct
// authors. It panics if two are equal.
func NewTriplet(a, b, c graph.VertexID) Triplet {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b, c = c, b
	}
	if a > b {
		a, b = b, a
	}
	if a == b || b == c {
		panic("hypergraph: triplet with repeated author")
	}
	return Triplet{X: a, Y: b, Z: c}
}

// TripletWeight computes w_xyz: the number of distinct pages on which all
// three authors of t commented at least once, by three-way merge of the
// sorted distinct-page lists.
func TripletWeight(b *graph.BTM, t Triplet) int {
	px, py, pz := b.AuthorPages(t.X), b.AuthorPages(t.Y), b.AuthorPages(t.Z)
	i, j, k, n := 0, 0, 0, 0
	for i < len(px) && j < len(py) && k < len(pz) {
		a, bb, c := px[i], py[j], pz[k]
		if a == bb && bb == c {
			n++
			i++
			j++
			k++
			continue
		}
		// advance the smallest
		m := a
		if bb < m {
			m = bb
		}
		if c < m {
			m = c
		}
		if a == m {
			i++
		}
		if bb == m {
			j++
		}
		if c == m {
			k++
		}
	}
	return n
}

// CommonPages returns the sorted list of pages shared by all three authors.
func CommonPages(b *graph.BTM, t Triplet) []graph.VertexID {
	px, py, pz := b.AuthorPages(t.X), b.AuthorPages(t.Y), b.AuthorPages(t.Z)
	var out []graph.VertexID
	i, j, k := 0, 0, 0
	for i < len(px) && j < len(py) && k < len(pz) {
		a, bb, c := px[i], py[j], pz[k]
		if a == bb && bb == c {
			out = append(out, a)
			i++
			j++
			k++
			continue
		}
		m := a
		if bb < m {
			m = bb
		}
		if c < m {
			m = c
		}
		if a == m {
			i++
		}
		if bb == m {
			j++
		}
		if c == m {
			k++
		}
	}
	return out
}

// CScore computes C(x,y,z) = 3·w_xyz/(p_x+p_y+p_z), in [0,1]; 0 when the
// denominator is 0.
func CScore(b *graph.BTM, t Triplet) float64 {
	den := float64(b.PageCount(t.X)) + float64(b.PageCount(t.Y)) + float64(b.PageCount(t.Z))
	if den == 0 {
		return 0
	}
	return 3 * float64(TripletWeight(b, t)) / den
}

// pageTimesOf returns author a's comment times on page p (nil if none),
// via binary search of the timed index.
func pageTimesOf(b *graph.BTM, a, p graph.VertexID) []int64 {
	pt := b.AuthorPageTimes(a)
	k := sort.Search(len(pt), func(i int) bool { return pt[i].Page >= p })
	if k < len(pt) && pt[k].Page == p {
		return pt[k].Times
	}
	return nil
}

// spreadWithin reports whether the three ascending time lists contain one
// element each with max-min < delta (the classic minimum-spread merge).
// Strict inequality matches the half-open projection window [0, δ): a
// three-way interaction with spread < δ implies every pairwise gap lies in
// [0, δ), which is exactly what Algorithm 1 counts — this is what makes
// the WindowedTripletWeight bound provable.
func spreadWithin(tx, ty, tz []int64, delta int64) bool {
	i, j, k := 0, 0, 0
	for i < len(tx) && j < len(ty) && k < len(tz) {
		a, b, c := tx[i], ty[j], tz[k]
		lo, hi := a, a
		if b < lo {
			lo = b
		}
		if b > hi {
			hi = b
		}
		if c < lo {
			lo = c
		}
		if c > hi {
			hi = c
		}
		if hi-lo < delta {
			return true
		}
		// advance the list holding the minimum
		switch lo {
		case a:
			i++
		case b:
			j++
		default:
			k++
		}
	}
	return false
}

// WindowedTripletWeight counts pages where x, y, and z each commented
// within some span strictly less than delta seconds (a three-way
// interaction inside a time window) — the §4.3 extension. It is monotone
// non-decreasing in delta, and for delta larger than the data's time range
// it equals TripletWeight.
//
// Bound (the "provable bounds" §4.3 anticipates): for any page counted
// here, every pairwise comment gap lies in [0, delta), so the page also
// contributes to each of w'_xy, w'_xz, w'_yz under a [0, delta) projection
// (with the same exclusions). Hence
//
//	WindowedTripletWeight(b, t, δ) <= min(w'_xy, w'_xz, w'_yz).
func WindowedTripletWeight(b *graph.BTM, t Triplet, delta int64) int {
	n := 0
	for _, p := range CommonPages(b, t) {
		tx := pageTimesOf(b, t.X, p)
		ty := pageTimesOf(b, t.Y, p)
		tz := pageTimesOf(b, t.Z, p)
		if spreadWithin(tx, ty, tz, delta) {
			n++
		}
	}
	return n
}

// Score is the full Step-3 record for one triplet.
type Score struct {
	Triplet Triplet
	// W is the hyperedge weight w_xyz (equation 2).
	W int
	// C is the normalized coordination score (equation 4).
	C float64
	// PX, PY, PZ are the per-author distinct page counts p (equation 3).
	PX, PY, PZ int
}

// Evaluate computes the Step-3 record for one triplet. It is the
// per-triplet reference that EvaluateAll must reproduce exactly.
func Evaluate(b *graph.BTM, t Triplet) Score {
	return scoreOf(t, TripletWeight(b, t), b.PageCount(t.X), b.PageCount(t.Y), b.PageCount(t.Z))
}

// scoreOf assembles a Score from w_xyz and the page counts, so Evaluate and
// EvaluateAll compute C with the same floating-point expression.
func scoreOf(t Triplet, w, px, py, pz int) Score {
	den := float64(px + py + pz)
	c := 0.0
	if den > 0 {
		c = 3 * float64(w) / den
	}
	return Score{Triplet: t, W: w, C: c, PX: px, PY: py, PZ: pz}
}

// EvaluateAll computes the Step-3 records for many triplets and returns
// them sorted by triplet, equal to Evaluate over each triplet followed by
// SortScores (duplicates included). ranks is the worker count; ranks <= 0
// means runtime.GOMAXPROCS(0). An author outside b panics, as in Evaluate.
//
// The kernel shares work along the (X, Y, Z) order instead of merging
// three page lists per triplet. Each worker owns a page-stamp array of
// length b.NumPages() (4 B × pages × workers, allocated per call) and a
// generation counter, so the array is never cleared between groups:
//
//   - per X, stamp pages(X) with a fresh generation gx;
//   - per (X, Y) run, re-stamp the pages of Y that carry a stamp >= gx
//     (that is, pages of X) with a fresh generation gy — that set is I_xy;
//   - per Z, w_xyz is the number of pages(Z) stamped gy, one linear scan.
//
// Workers pull fixed-size index chunks from a shared counter; each chunk
// is widened to (X, Y)-run boundaries, so one author heading many runs
// (the lowest ID of a large campaign) still spreads over every worker.
// Workers write their scores in place, so there is no gather or sort.
// Unsorted input is sorted once into a clone.
func EvaluateAll(b *graph.BTM, triplets []Triplet, ranks int) []Score {
	if len(triplets) == 0 {
		return nil
	}
	sorted := true
	var hi graph.VertexID
	for i, t := range triplets {
		hi = max(hi, t.X, t.Y, t.Z)
		if i > 0 && sorted && compareTriplets(triplets[i-1], t) > 0 {
			sorted = false
		}
	}
	if int(hi) >= b.NumAuthors() {
		b.AuthorPages(hi) // panics with Evaluate's out-of-range message
	}
	if !sorted {
		triplets = slices.Clone(triplets)
		slices.SortFunc(triplets, compareTriplets)
	}
	out := make([]Score, len(triplets))

	if ranks <= 0 {
		ranks = runtime.GOMAXPROCS(0)
	}
	chunk := max(minChunk, min(maxChunk, len(triplets)/(ranks*chunksPerWorker)))
	workers := min(ranks, (len(triplets)+chunk-1)/chunk)
	if workers == 1 {
		s := newStamper(b)
		s.run(triplets, out)
	} else {
		evaluateChunks(b, triplets, out, chunk, workers)
	}
	return out
}

// evaluateChunks runs workers stampers over the chunk-size index chunks of
// ts, each widened to (X, Y)-run boundaries, writing scores into out.
func evaluateChunks(b *graph.BTM, ts []Triplet, out []Score, chunk, workers int) {
	nChunks := (len(ts) + chunk - 1) / chunk
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			s := newStamper(b)
			for {
				k := int(next.Add(1)) - 1
				if k >= nChunks {
					return
				}
				lo, hi := xyRunBounds(ts, k*chunk, min((k+1)*chunk, len(ts)))
				s.run(ts[lo:hi], out[lo:hi])
			}
		}()
	}
	wg.Wait()
}

// Chunking for EvaluateAll: about chunksPerWorker chunks per worker so a
// slow chunk can be balanced by the others, each large enough to amortize
// re-stamping its first X.
const (
	minChunk        = 64
	maxChunk        = 4096
	chunksPerWorker = 8
)

// xyRunBounds widens the index chunk [lo, hi) to (X, Y)-run boundaries:
// a run that straddles lo belongs to the previous chunk, and a run that
// straddles hi is finished by this one. Adjacent chunks therefore tile the
// input exactly, and every run is evaluated by one worker.
func xyRunBounds(ts []Triplet, lo, hi int) (int, int) {
	for lo > 0 && lo < len(ts) && sameXY(ts[lo-1], ts[lo]) {
		lo++
	}
	for hi < len(ts) && sameXY(ts[hi-1], ts[hi]) {
		hi++
	}
	return lo, max(lo, hi)
}

func sameXY(a, b Triplet) bool { return a.X == b.X && a.Y == b.Y }

// stamper is one EvaluateAll worker's scratch: stamp[p] holds the last
// generation that marked page p.
type stamper struct {
	b     *graph.BTM
	stamp []uint32
	gen   uint32
}

func newStamper(b *graph.BTM) stamper {
	return stamper{b: b, stamp: make([]uint32, b.NumPages())}
}

// run scores the (X, Y, Z)-sorted triplets ts into out. A stamp >= gx
// marks a page of the current X: only X's pages and its I_xy subsets are
// stamped after gx, so earlier runs under the same X do not hide pages of
// X from later ones.
func (s *stamper) run(ts []Triplet, out []Score) {
	b, stamp := s.b, s.stamp
	var gx, gy uint32
	var px, py, nxy int
	for i, t := range ts {
		if i == 0 || t.X != ts[i-1].X {
			// One generation per X plus at most one per remaining
			// triplet must fit before the counter wraps.
			if uint64(s.gen)+uint64(len(ts)-i)+1 >= math.MaxUint32 {
				clear(stamp)
				s.gen = 0
			}
			s.gen++
			gx = s.gen
			pages := b.AuthorPages(t.X)
			for _, p := range pages {
				stamp[p] = gx
			}
			px = len(pages)
		}
		if i == 0 || !sameXY(t, ts[i-1]) {
			s.gen++
			gy = s.gen
			pages := b.AuthorPages(t.Y)
			nxy = 0
			for _, p := range pages {
				if stamp[p] >= gx {
					stamp[p] = gy
					nxy++
				}
			}
			py = len(pages)
		}
		pages := b.AuthorPages(t.Z)
		w := 0
		if nxy > 0 {
			for _, p := range pages {
				if stamp[p] == gy {
					w++
				}
			}
		}
		out[i] = scoreOf(t, w, px, py, len(pages))
	}
}

// compareTriplets orders triplets by (X, Y, Z).
func compareTriplets(a, b Triplet) int {
	if c := cmp.Compare(a.X, b.X); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Y, b.Y); c != 0 {
		return c
	}
	return cmp.Compare(a.Z, b.Z)
}

// SortScores orders scores by triplet for deterministic output.
func SortScores(ss []Score) {
	sort.Slice(ss, func(i, j int) bool {
		a, b := ss[i].Triplet, ss[j].Triplet
		if a.X != b.X {
			return a.X < b.X
		}
		if a.Y != b.Y {
			return a.Y < b.Y
		}
		return a.Z < b.Z
	})
}

// TopKByWeight returns the k scores with the largest hyperedge weight,
// ties broken by triplet order. The input is not modified.
func TopKByWeight(ss []Score, k int) []Score {
	out := make([]Score, len(ss))
	copy(out, ss)
	sort.Slice(out, func(i, j int) bool {
		if out[i].W != out[j].W {
			return out[i].W > out[j].W
		}
		a, b := out[i].Triplet, out[j].Triplet
		if a.X != b.X {
			return a.X < b.X
		}
		if a.Y != b.Y {
			return a.Y < b.Y
		}
		return a.Z < b.Z
	})
	if k < len(out) {
		out = out[:k]
	}
	return out
}
