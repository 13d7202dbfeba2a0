package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"time"

	"coordbot/internal/graph"
	"coordbot/internal/hypergraph"
	"coordbot/internal/interner"
	"coordbot/internal/pipeline"
	"coordbot/internal/pushshift"
	"coordbot/internal/tripoll"
)

const (
	batchDatasets = 2    // datasets per run, alternated between repetitions
	batchRuns     = 4    // minimum pipeline runs per benchmark run
	batchReads    = 1000 // read mix answered from each result
)

// batchArchive renders the corpus as a pushshift NDJSON archive.
func batchArchive(c *corpus) ([]byte, error) {
	authors, pages := interner.New(len(c.authors)), interner.New(len(c.pages))
	for _, n := range c.authors {
		authors.Intern(n)
	}
	for _, n := range c.pages {
		pages.Intern(n)
	}
	var buf bytes.Buffer
	if err := pushshift.Write(&buf, c.comments, authors, pages, false); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// readArchive decodes a pushshift archive and derives the helper
// exclusion set coordbot pipeline builds from -exclude. With the BTM
// build that follows it, this is the batch set-up.
func readArchive(archive []byte) (*pushshift.Corpus, map[graph.VertexID]bool, error) {
	corp, err := pushshift.Read(bytes.NewReader(archive))
	if err != nil {
		return nil, nil, err
	}
	exclude := map[graph.VertexID]bool{}
	for _, name := range []string{helperAuthor, helperDelete} {
		if id, ok := corp.Authors.Lookup(name); ok {
			exclude[id] = true
		}
	}
	return corp, exclude, nil
}

// batchInput is one batch dataset and its archive.
type batchInput struct {
	c       *corpus
	archive []byte
	checked bool
}

func newBatchInput(seed int64) (*batchInput, error) {
	c := batchCorpus(seed)
	archive, err := batchArchive(c)
	if err != nil {
		return nil, err
	}
	fmt.Printf("batch dataset %d: %d comments (%d authors, %d pages), archive %.1f MB\n",
		seed, len(c.comments), len(c.authors), len(c.pages), float64(len(archive))/1e6)
	return &batchInput{c: c, archive: archive}, nil
}

// runBatch: cold pipeline.Run over a decoded archive, repeated for the
// run's duration, alternating between batchDatasets datasets of the
// run's seed. Each repetition decodes its archive afresh (set-up) and
// answers a fresh read mix; each dataset's first result is checked.
// Metrics are per repetition, reported as the median over repetitions.
func runBatch(o options) (*Result, error) {
	res := newResult()
	var inputs [batchDatasets]*batchInput
	for d := range inputs {
		in, err := newBatchInput(o.seed*batchDatasets + int64(d))
		if err != nil {
			return nil, err
		}
		inputs[d] = in
	}
	var setups, runs, cycles, detects, cps, heaps, read50, read99 []float64
	base := heapBytes()
	deadline := time.Now().Add(time.Duration(o.seconds) * time.Second)
	for i := 0; i < batchRuns || time.Now().Before(deadline); i++ {
		in := inputs[i%batchDatasets]
		runtime.GC()
		t0 := time.Now()
		corp, exclude, err := readArchive(in.archive)
		if err != nil {
			return nil, err
		}
		b := corp.BTM()
		setup := elapsed(t0)
		t1 := time.Now()
		pr, err := pipeline.Run(b, pipelineConfig(exclude))
		res.Attempted++
		if err != nil {
			res.Failed++
			continue
		}
		run := elapsed(t1)
		setups = append(setups, setup)
		runs = append(runs, run)
		cycles = append(cycles, (run-pr.Timings.Project.Seconds())*1e3)
		detects = append(detects, (setup+run)*1e3)
		cps = append(cps, float64(len(corp.Comments))/(setup+run))
		heaps = append(heaps, heapMB(base))
		// Fresh queries for every repetition, so a run's read latencies do
		// not hinge on one small draw of triples.
		reads := readMix(in.c, rand.New(rand.NewSource(o.seed*1000+int64(i))), batchReads)
		readLat := batchReadProbe(res, corp, b, pr, reads)
		read50 = append(read50, quantile(readLat, 0.5))
		read99 = append(read99, quantile(readLat, 0.99))
		if !in.checked {
			checkBatch(res, in.c, pr, corp.Authors.Lookup)
			in.checked = true
		}
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("batch: every pipeline run failed")
	}
	res.set("setup_s", "s", median(setups))
	res.set("batch_s", "s", median(runs))
	res.set("cycle_p50_ms", "ms", median(cycles))
	// Every comment of an archive waits for the same result, so each
	// repetition's detection percentiles equal its time to result.
	res.set("detect_p50_ms", "ms", median(detects))
	res.set("detect_p99_ms", "ms", median(detects))
	res.set("ingest_cps", "1/s", median(cps))
	res.set("heap_mb", "MB", median(heaps))
	res.set("read_p50_us", "us", median(read50))
	res.set("read_p99_us", "us", median(read99))
	return res, nil
}

// batchReadProbe answers the live read mix from a batch result with the
// library calls a batch user would make: a score triple is a census
// lookup plus point reads and group metrics against the BTM; a triangle
// read takes the 100 heaviest triangles (tripoll.TopKByMinWeight); a
// community read takes the top 20 with member names. Latencies in µs.
func batchReadProbe(res *Result, corp *pushshift.Corpus, b *graph.BTM, pr *pipeline.Result, reads []readQuery) []float64 {
	lat := make([]float64, 0, len(reads))
	var sink int
	for _, q := range reads {
		t0 := time.Now()
		ok := true
		switch q.kind {
		case "score":
			names := strings.Split(strings.TrimPrefix(q.url, "/v1/score?users="), ",")
			ids := make([]graph.VertexID, 0, 3)
			for _, n := range names {
				id, found := corp.Authors.Lookup(n)
				ok = ok && found
				ids = append(ids, id)
			}
			if ok {
				sink += scoreTriple(b, pr, ids)
			}
		case "triangles":
			tris := make([]tripoll.Triangle, len(pr.Triangles))
			for i := range pr.Triangles {
				tris[i] = pr.Triangles[i].Triangle
			}
			sink += len(tripoll.TopKByMinWeight(tris, 100))
		case "communities":
			for i, cs := range pr.Communities {
				if i == 20 {
					break
				}
				for _, m := range cs.Members {
					sink += len(corp.Authors.Name(m))
				}
			}
		}
		res.Attempted++
		if !ok {
			res.Failed++
		}
		lat = append(lat, float64(time.Since(t0))/1e3)
	}
	runtime.KeepAlive(sink)
	return lat
}

// scoreTriple mirrors /v1/score for three users on a batch result.
func scoreTriple(b *graph.BTM, pr *pipeline.Result, ids []graph.VertexID) int {
	t := hypergraph.NewTriplet(ids[0], ids[1], ids[2])
	i := sort.Search(len(pr.Triangles), func(i int) bool {
		tr := pr.Triangles[i]
		if tr.X != t.X {
			return tr.X > t.X
		}
		if tr.Y != t.Y {
			return tr.Y > t.Y
		}
		return tr.Z >= t.Z
	})
	n := i
	for j := range ids {
		n += int(pr.CI.PageCount(ids[j]))
		for k := j + 1; k < len(ids); k++ {
			n += int(pr.CI.Weight(ids[j], ids[k]))
		}
	}
	g := hypergraph.NewGroup(ids...)
	n += hypergraph.GroupWeight(b, g)
	if hypergraph.GroupCScore(b, g) > 0.5 {
		n++
	}
	return n
}
